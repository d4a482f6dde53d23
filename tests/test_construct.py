"""Matrix constructions: minors, pfaffians, sections of kernel modules."""

from itertools import combinations

import pytest

from brforge.chern import expected_resolution_r3
from brforge.construct import (
    ConstructionError,
    ConstructionSpec,
    check_expected_codim,
    combine_columns,
    kernel_section_run,
    minors_ideal,
    pfaffian,
    pfaffian_ideal,
    random_graded_matrix,
    section,
    verify_construction,
)
from brforge.ideals import Ideal
from brforge.io import read_ideal, read_matrix
from brforge.resolution import GradedMatrix, syzygy_matrix
from brforge.ring import Rng

from conftest import fixture
from oracles import det_scalar, evaluate, pfaffian_scalar, scan_dimension


def random_point(nvars, p, rng):
    return [1 + rng.below(p - 1) for _ in range(nvars)]


def evaluated(M, point):
    return [[evaluate(e, point, M.ring.p) for e in row] for row in M.entries]


def random_skew(ring, size, rng):
    grid = [[ring.zero] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            f = ring.random_form(1, rng)
            grid[i][j] = f
            grid[j][i] = -f
    return GradedMatrix(ring, grid, (0,) * size, (1,) * size)


class TestConstructionSpec:
    def test_derived_twists(self):
        spec = ConstructionSpec(2, 2, 1, 1, 4)
        assert spec.section_twist == 3
        data = spec.twist_data()
        assert data.a == (2, 2, 2, 2)
        assert data.b == (3, 3)
        assert data.n == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstructionSpec(0, 3, 1, 2, 3)
        with pytest.raises(ValueError):
            ConstructionSpec(1, 3, 1, -1, 3)
        with pytest.raises(ValueError):
            ConstructionSpec(1, 4, 1, 2, 3)  # codim above ambient


class TestRandomGradedMatrix:
    def test_degrees_and_support(self, ring3):
        rng = Rng(3)
        M = random_graded_matrix(ring3, (0, 1), (1, 2, 0), rng)
        for i, rt in enumerate((0, 1)):
            for j, ct in enumerate((1, 2, 0)):
                e = M.entries[i][j]
                if ct - rt < 0:
                    assert e.is_zero()
                else:
                    assert not e.is_zero()
                    hom, d = e.is_homogeneous()
                    assert hom and d == ct - rt

    def test_deterministic_per_seed(self, ring3):
        A = random_graded_matrix(ring3, (0,), (1, 2), Rng(9))
        B = random_graded_matrix(ring3, (0,), (1, 2), Rng(9))
        assert A.entries == B.entries


class TestMinors:
    def test_hand_checked_two_by_four(self, ring3):
        M = read_matrix(fixture("standard_det_2x4.mat"))
        I = minors_ideal(M, 2)
        want = Ideal(
            ring3,
            [
                ring3.parse(s)
                for s in [
                    "z1^2",
                    "z1*z2",
                    "z1*z3",
                    "z2^2-z1*z3",
                    "z2*z3",
                    "z3^2",
                ]
            ],
        )
        assert I.equals(want)

    def test_against_point_evaluation(self, ring3):
        rng = Rng(21)
        M = random_graded_matrix(ring3, (0, 0, 0), (1, 1, 1, 1, 1), rng)
        for size in (2, 3):
            gens = minors_ideal(M, size).gens
            keys = [
                (rs, cs)
                for rs in combinations(range(M.rows), size)
                for cs in combinations(range(M.cols), size)
            ]
            assert len(gens) == len(keys)
            for _ in range(5):
                pt = random_point(ring3.nvars, ring3.p, rng)
                table = evaluated(M, pt)
                for g, (rs, cs) in zip(gens, keys):
                    sub = [[table[i][j] for j in cs] for i in rs]
                    assert evaluate(g, pt, ring3.p) == det_scalar(sub, ring3.p)

    def test_size_bounds(self, ring3):
        M = read_matrix(fixture("standard_det_2x4.mat"))
        with pytest.raises(ValueError):
            minors_ideal(M, 0)
        with pytest.raises(ValueError):
            minors_ideal(M, 3)


class TestPfaffian:
    def test_two_by_two(self, ring3):
        z0 = ring3.variables()[0]
        M = GradedMatrix(ring3, [[ring3.zero, z0], [-z0, ring3.zero]], (0, 0), (1, 1))
        assert pfaffian(M) == z0
        assert pfaffian(M, ()) == ring3.one

    def test_square_is_determinant(self, ring3):
        rng = Rng(23)
        for size in (4, 6):
            M = random_skew(ring3, size, rng)
            pf = pfaffian(M)
            for _ in range(5):
                pt = random_point(ring3.nvars, ring3.p, rng)
                table = evaluated(M, pt)
                v = evaluate(pf, pt, ring3.p)
                assert v == pfaffian_scalar(table, ring3.p)
                assert v * v % ring3.p == det_scalar(table, ring3.p)

    def test_maximal_pfaffians_of_calibrated_matrix(self, ring3):
        M = read_matrix(fixture("skew5.mat"))
        I = pfaffian_ideal(M)
        want = read_ideal(fixture("skew5_pfaffians.id"))
        assert I.equals(want)

    def test_shape_errors(self, ring3):
        z0 = ring3.variables()[0]
        with pytest.raises(ValueError):
            pfaffian(GradedMatrix(ring3, [[z0, z0]], (0,), (1, 1)))
        with pytest.raises(ValueError):
            pfaffian(GradedMatrix(ring3, [[z0]], (0,), (1,)))
        asym = GradedMatrix(ring3, [[ring3.zero, z0], [z0, ring3.zero]], (0, 0), (1, 1))
        with pytest.raises(ValueError):
            pfaffian(asym)
        ok = GradedMatrix(ring3, [[ring3.zero, z0], [-z0, ring3.zero]], (0, 0), (1, 1))
        with pytest.raises(ValueError):
            pfaffian(ok, (0,))
        with pytest.raises(ValueError):
            pfaffian_ideal(ok)


class TestExpectedCodim:
    def test_standard_matrix(self):
        M = read_matrix(fixture("standard_det_2x4.mat"))
        assert check_expected_codim(M, 2, 2)

    def test_koszul_row(self):
        M = read_matrix(fixture("koszul_p3.mat"))
        assert check_expected_codim(M, 1, 3)


class TestSection:
    def test_koszul_row_section(self, ring3):
        M = read_matrix(fixture("koszul_p3.mat"))
        rng = Rng(11)
        res = section(M, 0, rng)
        assert res.degree == 2
        assert len(res.coefficients) == 6
        for e, twist in zip(res.vector.entries, res.vector.twists):
            assert e.is_zero() or e.is_homogeneous() == (True, 2 - twist)
        assert list(res.ideal.gens) == [e for e in res.vector.entries if not e.is_zero()]
        assert res.regular is not None

    def test_degree_below_kernel_fails(self, ring3):
        M = read_matrix(fixture("koszul_p3.mat"))
        B = syzygy_matrix(M)
        with pytest.raises(ConstructionError):
            combine_columns(B, min(B.col_twists) - 1, Rng(1), 3)

    def test_combine_columns_decides_regularity(self):
        # the kernel of the linear row z1..z4 has rank 3; at module twist 2 a
        # section is a skew 4x4 constant matrix times the row, of even rank,
        # so its entries cut codimension 2 or 4 and it is never regular
        M = read_matrix(fixture("linear_row_p5.mat"))
        B = syzygy_matrix(M)
        r = M.cols - M.rows
        for twist, regular in ((2, False), (3, True)):
            sec = combine_columns(B, twist, Rng(1), r)
            assert sec.regular is regular
            assert (M.ring.nvars - scan_dimension(sec.ideal) == r) is regular

    def test_no_kernel(self, ring3):
        M = GradedMatrix(ring3, [[ring3.variables()[0]]], (0,), (1,))
        with pytest.raises(ConstructionError):
            section(M, 0, Rng(1))


class TestKernelSectionRun:
    def test_five_points_invariants(self, ring3):
        for seed in (11, 12, 13):
            spec = ConstructionSpec(1, 3, 1, 2, 3, seed=seed)
            run = kernel_section_run(ring3, spec, Rng(seed))
            assert run.section.regular
            report = verify_construction(run.gorenstein, run.twist_data())
            assert report.hilbert.degree == 5
            assert tuple(report.hilbert.second_series) == (1, 3, 1)
            assert report.betti.as_dict() == {(0, 2): 5, (1, 3): 5, (2, 5): 1}
            assert report.betti_matches
            assert report.ok

    def test_matches_closed_form_prediction(self):
        spec = ConstructionSpec(1, 3, 1, 2, 3)
        shape = expected_resolution_r3(
            spec.twist_data().a, spec.twist_data().b
        )
        assert shape.as_dict() == {(0, 2): 5, (1, 3): 5, (2, 5): 1}

    def test_deterministic_per_seed(self, ring3):
        spec = ConstructionSpec(1, 3, 1, 2, 3, seed=11)
        a = kernel_section_run(ring3, spec, Rng(11))
        b = kernel_section_run(ring3, spec, Rng(11))
        assert [str(g) for g in a.gorenstein.gens] == [str(g) for g in b.gorenstein.gens]

    def test_supplied_matrix_validation(self, ring3, ring2):
        M = read_matrix(fixture("koszul_p3.mat"))
        spec = ConstructionSpec(1, 3, 1, 2, 3)
        with pytest.raises(ValueError):
            kernel_section_run(
                ring3, ConstructionSpec(2, 2, 1, 1, 3), Rng(1), matrix=M
            )
        with pytest.raises(ValueError):
            kernel_section_run(
                ring3, ConstructionSpec(1, 3, 2, 2, 3), Rng(1), matrix=M
            )
        with pytest.raises(ValueError):
            kernel_section_run(ring2, spec, Rng(1))

    def test_degenerate_matrix_rejected(self, ring3):
        # a rank-deficient matrix misses the expected codimension
        z0 = ring3.variables()[0]
        M = GradedMatrix(ring3, [[z0, z0, z0, z0]], (0,), (1, 1, 1, 1))
        with pytest.raises(ConstructionError):
            kernel_section_run(ring3, ConstructionSpec(1, 3, 1, 2, 3), Rng(1), matrix=M)


class TestVerifyConstruction:
    def test_saved_five_points(self, ring3):
        I = read_ideal(fixture("points5.id"))
        report = verify_construction(I, ConstructionSpec(1, 3, 1, 2, 3).twist_data())
        assert report.ok
        assert report.degree_matches
        assert report.betti_matches
        assert report.betti_embeds
        assert report.certificate.arithmetically_gorenstein
        assert report.regularity == 3
        d = report.as_dict()
        assert d["predicted_degree"] == 5
        assert d["degree"] == 5
        assert d["ok"] is True
