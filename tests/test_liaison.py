"""Liaison: module intersections, sections through a subscheme, links."""

import pytest

from brforge.construct import ConstructionError, ConstructionSpec, kernel_section_run
from brforge.engine import ModuleGB
from brforge.ideals import Ideal
from brforge.io import read_ideal, read_matrix
from brforge.liaison import (
    common_section,
    generalized_br_run,
    gorenstein_link,
    module_intersection,
)
from brforge.resolution import GradedMatrix, gorenstein_certificate
from brforge.ring import Rng

from conftest import fixture
import oracles
from oracles import degree_span, dim_intersection_piece


def principal(ring, f):
    return GradedMatrix(ring, [[f]], (0,), (f.degree(),))


def span_contains(columns, twists, p, vec):
    gb = ModuleGB(p, twists)
    for col in columns:
        if col:
            gb.add(dict(col))
    gb.complete()
    return not gb.normal_form(dict(vec))


class TestModuleIntersection:
    def test_principal_ideals(self, ring3):
        z0, z1 = ring3.variables()[0], ring3.variables()[1]
        D = module_intersection(principal(ring3, z0), principal(ring3, z1))
        assert D.cols == 1
        assert D.col_twists == (2,)
        got = Ideal(ring3, [D.entries[0][0]])
        assert got.equals(Ideal(ring3, [z0 * z1]))

    def test_principal_dimensions_match_oracle(self, ring2):
        rng = Rng(37)
        for _ in range(8):
            f = ring2.random_form(1 + rng.below(2), rng)
            g = ring2.random_form(1 + rng.below(2), rng)
            if f.is_zero() or g.is_zero():
                continue
            D = module_intersection(principal(ring2, f), principal(ring2, g))
            gens = [D.entries[0][j] for j in range(D.cols)]
            for d in range(6):
                ours = degree_span(gens, ring2.nvars, ring2.p, d).rank
                want = dim_intersection_piece([f], [g], ring2.nvars, ring2.p, d)
                assert ours == want

    def test_rank_two_mixed(self, ring3):
        from brforge.ideals import poly_to_vec

        z0, z1 = ring3.variables()[0], ring3.variables()[1]
        twists = (0, 0)

        bcols = [poly_to_vec(z0, 0), poly_to_vec(z1, 1)]
        ccols = [poly_to_vec(z1, 0), poly_to_vec(z1, 1)]
        B = GradedMatrix.from_columns(ring3, twists, bcols, [1, 1])
        C = GradedMatrix.from_columns(ring3, twists, ccols, [1, 1])
        D = module_intersection(B, C)
        assert sorted(D.col_twists) == [1, 2]
        for j in range(D.cols):
            col = D.column_vec(j)
            assert span_contains(bcols, twists, ring3.p, col)
            assert span_contains(ccols, twists, ring3.p, col)

    def test_frame_mismatch(self, ring3):
        z0 = ring3.variables()[0]
        A = GradedMatrix(ring3, [[z0]], (0,), (1,))
        B = GradedMatrix(ring3, [[z0]], (1,), (2,))
        with pytest.raises(ValueError):
            module_intersection(A, B)

    def test_empty_side(self, ring3):
        z0 = ring3.variables()[0]
        A = principal(ring3, z0)
        Z = GradedMatrix(ring3, [[ring3.zero]], (0,), (1,))
        D = module_intersection(A, Z)
        assert D.cols == 0


class TestCommonSection:
    def test_entries_vanish_on_subscheme(self, ring3):
        phi = read_matrix(fixture("koszul_p3.mat"))
        IV = Ideal(ring3, [ring3.variables()[0], ring3.variables()[1], ring3.variables()[2]])
        sec = common_section(phi, IV, 1, Rng(3))
        for e in sec.vector.entries:
            assert IV.contains(e)
        assert all(IV.contains(g) for g in sec.ideal.gens)

    def test_zero_draws_do_not_raise_the_degree(self):
        # at coefficient degree 0 a draw vanishes with probability 1/2; these
        # seeds start with five zero draws and must still section at the
        # lowest twist of the intersection (1 + 2)
        phi = read_matrix(fixture("linear_row_p5.mat"))
        IV = read_ideal(fixture("veronese.id"))
        for seed in (18, 53, 84, 106, 113, 120, 131, 150, 171):
            assert common_section(phi, IV, 0, Rng(seed)).degree == 3, seed

    def test_seed_five_unchanged(self):
        phi = read_matrix(fixture("linear_row_p5.mat"))
        IV = read_ideal(fixture("veronese.id"))
        sec = common_section(phi, IV, 0, Rng(5))
        assert sec.degree == 3
        assert sec.regular
        assert [str(e) for e in sec.vector.entries] == [
            "10902*z0*z2 - 10902*z4^2",
            "-10902*z0*z1 + 10902*z3^2",
            "-10902*z2*z3 + 10902*z4*z5",
            "10902*z1*z4 - 10902*z3*z5",
        ]

    def test_kernelless_matrix(self, ring3):
        phi = GradedMatrix(ring3, [[ring3.variables()[0]]], (0,), (1,))
        with pytest.raises(ConstructionError):
            common_section(phi, Ideal(ring3, [ring3.variables()[1]]), 0, Rng(1))


class TestGorensteinLink:
    def test_line_self_link(self, ring3):
        z0, z1, z2 = (ring3.variables()[i] for i in range(3))
        phi = GradedMatrix(ring3, [[z0, z1, z2]], (0,), (1, 1, 1))
        IV = Ideal(ring3, [z0, z1])
        rec = gorenstein_link(phi, IV, 0, Rng(5))
        assert rec.section.regular
        assert rec.gorenstein.equals(IV)
        assert rec.certificate.arithmetically_gorenstein
        assert rec.certificate.codimension == 2
        assert rec.betti.as_dict() == {(0, 1): 2, (1, 2): 1}
        assert rec.gorenstein_report.degree == 1
        assert tuple(rec.gorenstein_report.second_series) == (1,)
        # linking a scheme to itself leaves nothing: the residual is the unit
        assert rec.residual.contains(ring3.one)

    def test_containment_of_fixed_subscheme(self, ring3):
        # every link must keep V inside the constructed scheme
        z0, z1, z2 = (ring3.variables()[i] for i in range(3))
        phi = GradedMatrix(ring3, [[z0, z1, z2]], (0,), (1, 1, 1))
        IV = Ideal(ring3, [z0, z1])
        rec = gorenstein_link(phi, IV, 0, Rng(8))
        assert IV.contains_ideal(rec.gorenstein)


class TestGeneralizedRun:
    def base(self, ring3):
        return read_ideal(fixture("points5.id"))

    def test_rejects_non_gorenstein_base(self, ring3):
        I = Ideal(
            ring3,
            [
                ring3.parse("z1^2-z0*z2"),
                ring3.parse("z1*z2-z0*z3"),
                ring3.parse("z2^2-z1*z3"),
            ],
        )
        with pytest.raises(ConstructionError):
            generalized_br_run(I, (3, 3, 3), 6, Rng(1))

    def test_rejects_wrong_ci_count(self, ring3):
        with pytest.raises(ValueError):
            generalized_br_run(self.base(ring3), (3, 3), 6, Rng(1))

    def test_five_points_base(self, ring3):
        run = generalized_br_run(self.base(ring3), (3, 3, 3), 6, Rng(11))
        assert run.spec.e1 == (2,) * 5
        assert run.spec.e2 == (3,) * 5
        assert run.spec.ell == -1
        assert run.spec.alpha == 9
        assert run.spec.b == 8
        assert run.spec.aci_type == (2, 3, 3, 3)
        assert run.section.regular
        assert run.section.degree == 6
        assert oracles.step_dicts(run.shape) == [{2: 1, 3: 3}, {5: 8, 6: 1}, {5: 1, 6: 5}]
        assert run.shape_matches
        assert run.report.degree == 13
        assert tuple(run.report.second_series) == (1, 3, 5, 4)
        # the top part is an almost complete intersection, not Gorenstein:
        # four generators, Cohen-Macaulay, last module rank above one
        cert = gorenstein_certificate(run.section_top)
        assert cert.cohen_macaulay
        assert cert.codimension == 3
        assert not cert.arithmetically_gorenstein

    def test_deterministic_per_seed(self, ring3):
        a = generalized_br_run(self.base(ring3), (3, 3, 3), 6, Rng(4))
        b = generalized_br_run(self.base(ring3), (3, 3, 3), 6, Rng(4))
        assert [str(g) for g in a.section_top.gens] == [
            str(g) for g in b.section_top.gens
        ]


class TestPipelineComposition:
    def test_constructed_base_feeds_generalized_run(self, ring3):
        # construction output is a valid base for the generalized pipeline
        rng = Rng(11)
        spec = ConstructionSpec(1, 3, 1, 2, 3, seed=11)
        first = kernel_section_run(ring3, spec, rng)
        run = generalized_br_run(first.gorenstein, (3, 3, 3), 6, rng)
        assert run.shape_matches
        assert run.base_certificate.arithmetically_gorenstein
