"""Ideal operations against the dense oracle, plus the pinned regressions."""

from collections import Counter

import pytest

import brforge.ideals
from brforge.construct import ConstructionSpec, construction_matrix, kernel_section_run
from brforge.engine import ModuleGB
from brforge.ideals import (
    ConstructionError,
    Ideal,
    _essential_targets,
    affine_dimension,
    draw_regular_sequence,
    ideal_intersection,
    ideal_quotient,
    linear_saturation,
    regular_sequence,
    saturation,
    top_dimensional_part,
)
from brforge.hilbert import hilbert_report
from brforge.io import read_ideal
from brforge.poly import PolyRing
from brforge.protocol import recording
from brforge.ring import Rng

import oracles

from conftest import fixture, random_ideal


P = 32003


class TestQuotient:
    def test_quotient_by_variable_regression(self, ring3):
        # a tail reduction participates in the tracked run here; the
        # emitted cofactor was once wrong by a sign
        J = Ideal(ring3, [ring3.parse("z0*z1-z2*z3")])
        Q = ideal_quotient(J, Ideal(ring3, [ring3.variables()[0]]))
        assert Q.equals(J)

    def test_quotient_dimensions_against_oracle(self, ring2):
        rng = Rng(51)
        for _ in range(12):
            I = random_ideal(ring2, rng, 2, 2)
            J = random_ideal(ring2, rng, 1, 2)
            Q = ideal_quotient(I, J)
            for d in range(5):
                assert (
                    oracles.degree_span(list(Q.gens), ring2.nvars, P, d).rank
                    == oracles.dim_quotient_piece(
                        list(I.gens), list(J.gens), ring2.nvars, P, d
                    )
                )

    def test_quotient_members_multiply_in(self, ring3):
        rng = Rng(52)
        I = random_ideal(ring3, rng, 2, 2)
        J = random_ideal(ring3, rng, 2, 2)
        Q = ideal_quotient(I, J)
        for q in Q.gens:
            for g in J.gens:
                assert oracles.in_ideal(q * g, list(I.gens), ring3.nvars, P)

    def test_quotient_of_product(self, ring3):
        # (I*J : J) contains I
        rng = Rng(53)
        I = random_ideal(ring3, rng, 2, 2)
        J = random_ideal(ring3, rng, 1, 1)
        Q = ideal_quotient(oracles.ideal_product(I, J), J)
        assert Q.contains_ideal(I)

    def test_unit_quotient(self, ring3):
        I = Ideal(ring3, [ring3.variables()[0]])
        Q = ideal_quotient(I, I)
        assert Q.contains(ring3.one)
        # I : 0 = R; the zero form gives the zero ideal
        for J in (Ideal(ring3, [ring3.zero]), Ideal(ring3, [])):
            assert ideal_quotient(I, J).gens == (ring3.one,)


def _combination(ring, rng, parts, degree):
    """A random combination, of the given degree, of the given forms."""
    f = ring.zero
    for g in parts:
        if g.degree() <= degree:
            f = f + ring.random_form(degree - g.degree(), rng) * g
    return f


class TestQuotientRedundantTargets:
    """ideal_quotient passes only the targets outside I plus the targets
    before them; the redundant ones must not move the quotient."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("n", [2, 3])
    def test_against_dense_oracle_and_unpruned_route(self, p, n):
        ring = PolyRing(p, n)
        rng = Rng(100 * p + n)
        for _ in range(4):
            # targets from the factors of a product are zero divisors, so
            # each one moves the quotient
            A = random_ideal(ring, rng, 2, 1)
            B = random_ideal(ring, rng, 2, 2)
            I = oracles.ideal_product(A, B)
            base = [_combination(ring, rng, A.gens, 2), _combination(ring, rng, B.gens, 2)]
            inside = _combination(ring, rng, I.gens, 3)
            mixed = _combination(ring, rng, base, 3) + _combination(ring, rng, I.gens, 3)
            # a target in I, a duplicate, and a combination of earlier
            # targets plus a member of I
            targets = [base[0], inside, base[1], base[0], mixed]
            kept = _essential_targets(I, targets)
            assert all(any(k == b for b in base) for k in kept)
            Q = ideal_quotient(I, Ideal(ring, targets))
            for d in range(5):
                assert oracles.degree_span(
                    list(Q.gens), ring.nvars, p, d
                ).rank == oracles.dim_quotient_piece(
                    list(I.gens), targets, ring.nvars, p, d
                ), (p, n, d)
            assert Q.equals(oracles.unpruned_quotient(I, targets))

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_targets_inside_the_ideal_give_the_unit_ideal(self, p):
        ring = PolyRing(p, 3)
        rng = Rng(p)
        I = random_ideal(ring, rng, 3, 2)
        targets = [
            _combination(ring, rng, I.gens, 2),
            I.gens[0],
            _combination(ring, rng, I.gens, 3),
            I.gens[0],
        ]
        assert _essential_targets(I, targets) == []
        Q = ideal_quotient(I, Ideal(ring, targets))
        assert Q.gens == (ring.one,)
        assert Q.equals(oracles.unpruned_quotient(I, targets))
        for d in range(4):
            assert oracles.dim_quotient_piece(
                list(I.gens), targets, ring.nvars, p, d
            ) == len(oracles.monomial_exponents(ring.nvars, d))


class TestCanonicalPresentation:
    """Quotient and top-part results are printed on the members of their
    reduced Groebner basis that minimal_generating_subset keeps."""

    @staticmethod
    def _formatted(gens):
        return [g.ring.format(g) for g in gens]

    @staticmethod
    def _assert_canonical(R):
        gb = R.groebner()
        assert all(g.terms[0][1] == 1 and g in gb for g in R.gens)
        # the basis carried over from the quotient is the ideal's own
        assert Ideal(R.ring, R.gens).groebner() == gb

    def test_one_ideal_two_generating_sets(self, ring3):
        rng = Rng(60)
        for _ in range(4):
            I = random_ideal(ring3, rng, 3, 2)
            padded = [ring3.parse(str(1 + rng.below(P - 1))) * g for g in I.gens]
            padded += [_combination(ring3, rng, I.gens, 3), I.gens[-1]]
            for i in range(len(padded) - 1, 0, -1):
                j = rng.below(i + 1)
                padded[i], padded[j] = padded[j], padded[i]
            J = Ideal(ring3, padded)
            assert self._formatted(I.minimal_generators()) == self._formatted(
                J.minimal_generators()
            )
            target = random_ideal(ring3, rng, 2, 2)
            assert self._formatted(ideal_quotient(I, target).gens) == self._formatted(
                ideal_quotient(J, target).gens
            )

    def test_quotients_and_top_parts_are_monic_basis_members(self, ring3):
        rng = Rng(61)
        for _ in range(4):
            I = random_ideal(ring3, rng, 3, 2)
            self._assert_canonical(ideal_quotient(I, random_ideal(ring3, rng, 2, 2)))
            self._assert_canonical(ideal_quotient(I, Ideal(ring3, [ring3.random_form(1, rng)])))
        conic = Ideal(ring3, [ring3.parse("z3"), ring3.parse("z0*z1-z2^2")])
        point = Ideal(ring3, [ring3.parse("z1"), ring3.parse("z2"), ring3.parse("z3-z0")])
        self._assert_canonical(top_dimensional_part(ideal_intersection(conic, point), 2, Rng(57)))
        run = kernel_section_run(PolyRing(P, 3), ConstructionSpec(1, 3, 1, 2, 3), Rng(11))
        self._assert_canonical(run.gorenstein)

    def test_p6_flagship_top_part_equals_the_old_double_quotient(self):
        ring = PolyRing(P, 6)
        spec = ConstructionSpec(1, 5, 1, 2, 6, seed=1)
        matrix = construction_matrix(ring, spec, Rng(1))
        run = kernel_section_run(ring, spec, Rng(1), matrix=matrix)
        top = run.gorenstein
        assert [g.degree() for g in top.gens] == [2, 2, 2, 2, 2, 2, 3]
        self._assert_canonical(top)
        # the top part does not depend on the regular sequence cut out of
        # the section's ideal, so a fresh one serves the old route
        I = run.section.ideal
        rng = Rng(2)
        J = Ideal(ring, [_combination(ring, rng, I.gens, 2) for _ in range(spec.r)])
        assert J.codimension() == spec.r
        link = oracles.unpruned_quotient(J, I.gens)
        assert top.equals(oracles.unpruned_quotient(J, link.gens))


def _messy_generators(ring, rng):
    """Random forms of degrees 1 to 3, then a scaled copy, a duplicate, a
    multiple and a combination of them, shuffled."""
    p = ring.p
    base = list(random_ideal(ring, rng, 2 + rng.below(3), 3).gens)
    gens = base + [
        ring.parse(str(1 + rng.below(p - 1))) * base[0],
        base[-1],
        ring.variables()[rng.below(ring.nvars)] * base[1],
        _combination(ring, rng, base, 3),
    ]
    for i in range(len(gens) - 1, 0, -1):
        j = rng.below(i + 1)
        gens[i], gens[j] = gens[j], gens[i]
    return gens


class TestOneBasisBuild:
    """Every ideal's basis is grown once, over its generators or over the
    candidates of the pass that made it, and its canonical generators are
    pruned from the basis members up to its generators' top degree."""

    @staticmethod
    def _check(I):
        ring = I.ring
        assert I.groebner() == oracles.batch_groebner(I)
        mg = I.minimal_generators()
        assert mg == oracles.canonical_generators(I)
        top = max(g.degree() for g in I.gens) + 1
        dense = oracles.minimal_generator_counts(I.gens, ring.nvars, ring.p, top)
        counts = Counter(g.degree() for g in mg)
        assert [counts[d] for d in range(top + 1)] == dense

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("n", [2, 3])
    def test_against_batch_route_and_dense_counts(self, p, n):
        ring = PolyRing(p, n)
        rng = Rng(200 * p + n)
        for _ in range(3):
            I = Ideal(ring, _messy_generators(ring, rng))
            self._check(I)
            Q = ideal_quotient(I, Ideal(ring, [ring.random_form(1, rng)]))
            assert Q.gens == oracles.canonical_generators(Q)
            self._check(Q)
            self._check(ideal_intersection(I, Ideal(ring, _messy_generators(ring, rng))))

    @staticmethod
    def _generic(degrees, basis_degrees):
        """Generic forms of the given degrees in P^3, with their basis built."""
        ring = PolyRing(P, 3)
        rng = Rng(7)
        I = Ideal(ring, [ring.random_form(d, rng) for d in degrees])
        assert [g.degree() for g in I.groebner()] == basis_degrees
        return I

    @pytest.mark.parametrize(
        "degrees, basis_degrees, reduced",
        [
            # only the three quadrics are reduced, no member of degree 3 or 4
            ([2, 2, 2], [2, 2, 2, 3, 3, 4], 3),
            # both cubic members are reduced, no member of degree 4 or 5
            ([2, 2, 3], [2, 2, 3, 3, 4, 4, 5], 4),
        ],
    )
    def test_canonical_generators_reduce_only_lacking_degrees(
        self, monkeypatch, degrees, basis_degrees, reduced
    ):
        I = self._generic(degrees, basis_degrees)
        calls = []
        add_remainder = ModuleGB.add_remainder

        def counted(self, vec, value=None):
            calls.append(1)
            return add_remainder(self, vec, value)

        monkeypatch.setattr(ModuleGB, "add_remainder", counted)
        assert [g.degree() for g in I.minimal_generators()] == degrees
        assert len(calls) == reduced

    def test_quotient_builds_each_basis_once(self, monkeypatch):
        """I's basis, the essential targets, the pass, the candidates (whose
        basis becomes the result's) and the canonical generators: five
        engines."""
        I = self._generic([2, 2, 2], [2, 2, 2, 3, 3, 4])
        I = Ideal(I.ring, I.gens)
        engines = []
        init = ModuleGB.__init__

        def counted(self, *args, **kwargs):
            engines.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ModuleGB, "__init__", counted)
        Q = ideal_quotient(I, Ideal(I.ring, [I.ring.variables()[0]]))
        assert len(engines) == 5
        assert Q.equals(I)
        assert len(engines) == 5


class TestIntersection:
    def test_dimensions_against_oracle(self, ring2):
        rng = Rng(54)
        for _ in range(12):
            I = random_ideal(ring2, rng, 1, 2)
            J = random_ideal(ring2, rng, 1, 2)
            M = ideal_intersection(I, J)
            for d in range(6):
                assert (
                    oracles.degree_span(list(M.gens), ring2.nvars, P, d).rank
                    == oracles.dim_intersection_piece(
                        list(I.gens), list(J.gens), ring2.nvars, P, d
                    )
                )

    def test_coprime_linear_forms(self, ring3):
        I = Ideal(ring3, [ring3.variables()[0]])
        J = Ideal(ring3, [ring3.variables()[1]])
        M = ideal_intersection(I, J)
        assert M.equals(Ideal(ring3, [ring3.parse("z0*z1")]))

    def test_intersection_inside_both(self, ring3):
        rng = Rng(55)
        I = random_ideal(ring3, rng, 2, 2)
        J = random_ideal(ring3, rng, 2, 2)
        M = ideal_intersection(I, J)
        for f in M.gens:
            assert oracles.in_ideal(f, list(I.gens), ring3.nvars, P)
            assert oracles.in_ideal(f, list(J.gens), ring3.nvars, P)


class TestSaturation:
    def test_strips_irrelevant_power(self, ring3):
        m = Ideal(ring3, list(ring3.variables()))
        I = oracles.ideal_product(m, Ideal(ring3, [ring3.parse("z0^2+z1^2")]))
        S = saturation(I)
        assert S.equals(Ideal(ring3, [ring3.parse("z0^2+z1^2")]))

    def test_keeps_coordinate_hyperplane_regression(self, ring3):
        # multiplying by z0 only must still saturate back to (z0):
        # saturating with the product of the variables would wrongly
        # return the unit ideal here
        m = Ideal(ring3, list(ring3.variables()))
        I = oracles.ideal_product(Ideal(ring3, [ring3.variables()[0]]), m)
        S = saturation(I)
        assert S.equals(Ideal(ring3, [ring3.variables()[0]]))

    def test_fixed_point_on_saturated(self, ring3):
        I = Ideal(ring3, [ring3.parse("z0*z1-z2*z3")])
        assert saturation(I).equals(I)

    def test_idempotent(self, ring2):
        rng = Rng(56)
        for _ in range(6):
            I = random_ideal(ring2, rng, 2, 2)
            S = saturation(I)
            assert saturation(S).equals(S)

    def test_members_return_after_multiplication(self, ring3):
        # soundness: each saturation generator times a high power of each
        # variable lands back in the ideal
        m = Ideal(ring3, list(ring3.variables()))
        base = Ideal(ring3, [ring3.parse("z1^2"), ring3.parse("z1*z2")])
        I = oracles.ideal_product(base, m)
        S = saturation(I)
        for f in S.gens:
            for v in ring3.variables():
                g = f
                for _ in range(6):
                    g = g * v
                assert oracles.in_ideal(g, list(I.gens), ring3.nvars, P)


def _notes_and_result(saturate, I):
    lines = []
    with recording(lines.append):
        S = saturate(I)
    return lines, S


class TestSaturationAgainstQuotientLoop:
    """saturation (one linear_saturation per variable) gives the generators
    and the "stabilized after k quotients" notes of quotients by each
    variable iterated until they stop growing (oracles)."""

    @staticmethod
    def _check(I):
        notes, S = _notes_and_result(saturation, I)
        loop_notes, loop = _notes_and_result(oracles.quotient_loop_saturation, I)
        assert (notes, S.gens) == (loop_notes, loop.gens)
        return notes

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_random_ideals(self, p):
        rng = Rng(340 + p)
        steps = Counter()
        for n in (2, 3):
            ring = PolyRing(p, n)
            m = Ideal(ring, list(ring.variables()))
            for trial in range(6):
                B = random_ideal(ring, rng, 1 + rng.below(3), 2)
                v = ring.variables()[rng.below(ring.nvars)]
                # embedded components at the vertex and along a coordinate
                # hyperplane, to one or two powers
                J = m if trial % 2 else oracles.ideal_product(m, Ideal(ring, [v * v]))
                I = oracles.ideal_product(B, oracles.ideal_product(J, J) if trial % 3 else J)
                for line in self._check(I):
                    if "stabilized" in line:
                        steps[int(line.split()[-2])] += 1
        assert steps[1] and sum(c for k, c in steps.items() if k >= 2), steps

    @pytest.mark.parametrize(
        "name",
        ["ci_quadrics_p4", "deg54_saturated", "deg54_section", "plane_p5", "points5",
         "skew5_pfaffians", "veronese", "veronese_union_plane"],
    )
    def test_fixtures(self, name):
        # each fixture, and its product with the irrelevant ideal
        I = read_ideal(fixture(name + ".id"))
        self._check(I)
        notes = self._check(oracles.ideal_product(I, Ideal(I.ring, list(I.ring.variables()))))
        assert len(notes) == I.ring.nvars + 1


class TestSmallFieldOracles:
    """Intersections and saturations over p = 3, 5, 7, where random forms
    degenerate often, against dense linear algebra.  Their results are
    pruned on untracked bases, which run the treated-pair rule."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_intersection(self, p):
        ring = PolyRing(p, 2)
        rng = Rng(310 + p)
        for _ in range(8):
            I = random_ideal(ring, rng, 1 + rng.below(2), 2)
            J = random_ideal(ring, rng, 1 + rng.below(2), 2)
            M = ideal_intersection(I, J)
            for f in M.gens:
                assert oracles.in_ideal(f, list(I.gens), ring.nvars, p)
                assert oracles.in_ideal(f, list(J.gens), ring.nvars, p)
            for d in range(7):
                assert oracles.degree_span(list(M.gens), ring.nvars, p, d).rank == (
                    oracles.dim_intersection_piece(list(I.gens), list(J.gens), ring.nvars, p, d)
                ), (p, d)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_saturation(self, p):
        # I inside S inside the saturation of I, and S saturated (S : m = S
        # in every degree checked), so S is the saturation there
        ring = PolyRing(p, 2)
        rng = Rng(320 + p)
        m = Ideal(ring, list(ring.variables()))
        for _ in range(5):
            B = random_ideal(ring, rng, 1 + rng.below(3), 2)
            I = oracles.ideal_product(B, oracles.ideal_product(m, m) if rng.below(2) else m)
            S = saturation(I)
            for g in I.gens:
                assert oracles.in_ideal(g, list(S.gens), ring.nvars, p)
            for f in S.gens:
                for v in ring.variables():
                    g = f
                    for _ in range(4):
                        g = g * v
                    assert oracles.in_ideal(g, list(I.gens), ring.nvars, p)
            for d in range(6):
                assert oracles.dim_quotient_piece(
                    list(S.gens), list(ring.variables()), ring.nvars, p, d
                ) == oracles.degree_span(list(S.gens), ring.nvars, p, d).rank, (p, d)


class TestRegularSequence:
    """regular_sequence accepts exactly the forms that cut their own number
    as codimension, by the subset scan of oracles.scan_dimension."""

    @staticmethod
    def _check(ring, forms):
        J = regular_sequence(ring, forms)
        I = Ideal(ring, forms)
        regular = ring.nvars - oracles.scan_dimension(I) == len(forms)
        assert (J is not None) == regular, [str(f) for f in forms]
        if J is not None:
            assert J.groebner() == I.groebner()
            assert J.hilbert() == hilbert_report(I)
            assert J.minimal_generators() == I.minimal_generators()
            assert J.contains(forms[-1] * forms[0])
        return regular

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_against_the_subset_scan(self, p):
        rng = Rng(330 + p)
        seen = Counter()
        for n in (1, 2, 3, 4):
            ring = PolyRing(p, n)
            z = ring.variables()
            for _ in range(10):
                r = 1 + rng.below(ring.nvars)
                forms = [ring.sparse_form(1 + rng.below(3), rng) for _ in range(r)]
                seen["random", self._check(ring, forms)] += 1
            f, g = ring.random_form(2, rng), ring.random_form(1, rng)
            lin = ring.random_form(1, rng)
            degenerate = {
                "repeated": [f, g, f],
                "common linear factor": [lin * f, lin * g],
                "dependent": [f, g * g, f + g * g * ring.parse("2")],
                "zero divisor": [z[0] * z[1], z[0] * z[-1], z[1] * z[-1]],
                "zero form": [f, ring.zero],
                "constant": [ring.one],
                "too many": [ring.random_form(1, rng) for _ in range(ring.nvars + 1)],
            }
            for name, forms in degenerate.items():
                assert not self._check(ring, forms), name
            seen["powers", self._check(ring, [v ** (1 + i) for i, v in enumerate(z)])] += 1
        assert seen["random", True] and seen["random", False]
        assert seen["powers", True] == 4


class TestDrawRegularSequence:
    """draw_regular_sequence against the two loops it replaced,
    oracles.top_part_cut and oracles.complete_intersection_cut: the same
    forms, the same attempt, and the stream left at the same place."""

    @staticmethod
    def _same(drawn, expected, rng, again):
        """The attempt both draws stopped at, 0 for none."""
        if expected is None:
            assert drawn is None
        else:
            J, attempt = drawn
            assert J.gens == expected[0].gens
            assert attempt == expected[1]
        assert rng.next64() == again.next64()
        return expected[1] if expected else 0

    @pytest.mark.parametrize("p", [3, 5, 7, 32003])
    def test_against_the_loops_it_replaced(self, p):
        ring = PolyRing(p, 3)
        attempts = Counter()
        below = 0
        for seed in range(4):
            rng = Rng(900 + 10 * p + seed)
            I = random_ideal(ring, rng, 2 + rng.below(2), 3)
            dmax = max(g.degree() for g in I.gens)
            for r in (1, 2, 4):
                for degree in (dmax, dmax + 1):
                    a, b = Rng(seed), Rng(seed)
                    got = draw_regular_sequence(I, [degree] * r, a, 5)
                    attempts[self._same(got, oracles.top_part_cut(I, r, degree, b), a, b)] += 1
            # complete intersections whose degrees sit below some generator's
            mixed = Ideal(ring, [ring.random_form(d, rng) for d in (1, 2, 3)])
            for degrees in ((1, 2, 3), (1, 1, 2), (2, 2, 3), (1, 3, 3)):
                below += any(d < g.degree() for d in degrees for g in mixed.gens)
                a, b = Rng(seed), Rng(seed)
                got = draw_regular_sequence(mixed, degrees, a, 20)
                want = oracles.complete_intersection_cut(mixed, degrees, b)
                attempts[self._same(got, want, a, b)] += 1
        assert below
        assert attempts[0], "no draw failed every attempt"
        assert attempts[1], "no draw succeeded at once"
        assert sum(n for k, n in attempts.items() if k > 1), "no first attempt failed"


class TestTopDimensionalPart:
    def test_strips_embedded_point(self, ring3):
        # plane conic union an embedded point component in codim 3
        conic = Ideal(ring3, [ring3.parse("z3"), ring3.parse("z0*z1-z2^2")])
        point = Ideal(ring3, [ring3.parse("z1"), ring3.parse("z2"), ring3.parse("z3-z0")])
        I = ideal_intersection(conic, point)
        top = top_dimensional_part(I, 2, Rng(57))
        assert top.equals(conic)

    def test_idempotent(self, ring3):
        rng = Rng(58)
        I = Ideal(ring3, [ring3.random_form(2, rng), ring3.random_form(2, rng)])
        top = top_dimensional_part(I, 2, rng)
        again = top_dimensional_part(top, 2, rng)
        assert again.equals(top)

    def test_rejects_the_zero_ideal(self, ring3):
        with pytest.raises(ValueError, match="zero ideal"):
            top_dimensional_part(Ideal(ring3, []), 1, Rng(1))

    @staticmethod
    def _conic_and_point(ring3):
        conic = Ideal(ring3, [ring3.parse("z3"), ring3.parse("z0*z1-z2^2")])
        point = Ideal(ring3, [ring3.parse("z1"), ring3.parse("z2"), ring3.parse("z3-z0")])
        return conic, ideal_intersection(conic, point)

    @staticmethod
    def _failing_draws(monkeypatch, failing):
        """Make draw_regular_sequence fail at the degrees `failing` accepts;
        the degrees asked for, in order."""
        asked = []
        draw = brforge.ideals.draw_regular_sequence

        def drawn(I, degrees, rng, attempts):
            asked.append(degrees[0])
            return None if failing(degrees[0]) else draw(I, degrees, rng, attempts)

        monkeypatch.setattr(brforge.ideals, "draw_regular_sequence", drawn)
        return asked

    def test_raises_the_degree_when_every_draw_degenerates(self, ring3, monkeypatch):
        conic, I = self._conic_and_point(ring3)
        dmax = max(g.degree() for g in I.gens)
        asked = self._failing_draws(monkeypatch, lambda d: d == dmax)
        lines = []
        with recording(lines.append):
            top = top_dimensional_part(I, 2, Rng(57))
        assert top.equals(conic)
        assert asked == [dmax, dmax + 1]
        assert lines == [
            f"top part: all draws at degree {dmax} degenerate, raising degree",
            f"top part: cut with 2 forms of degree {dmax + 1} (attempt 1)",
        ]

    def test_refuses_after_two_escalations(self, ring3, monkeypatch):
        _, I = self._conic_and_point(ring3)
        dmax = max(g.degree() for g in I.gens)
        asked = self._failing_draws(monkeypatch, lambda d: True)
        lines = []
        with recording(lines.append), pytest.raises(ConstructionError, match="after escalation"):
            top_dimensional_part(I, 2, Rng(57))
        assert asked == [dmax, dmax + 1, dmax + 2]
        assert lines == [
            f"top part: all draws at degree {d} degenerate, raising degree" for d in asked
        ]


def _routes(ring, spec, seed):
    """A kernel section's top part, the double quotient of its section
    ideal with fresh draws, and whether the run fell back to a cut."""
    lines = []
    with recording(lines.append):
        run = kernel_section_run(ring, spec, Rng(seed))
    cut = top_dimensional_part(run.section.ideal, spec.r, Rng(seed))
    return run.gorenstein, cut, any("cutting instead" in line for line in lines)


class TestLinearSaturation:
    """linear_saturation (I : h^infinity by one basis with h moved to the
    last variable) against quotients by h, and the kernel sections' top
    part it gives against the double quotient of top_dimensional_part."""

    @pytest.mark.parametrize("p", [3, 5, 7, P])
    def test_against_iterated_quotients(self, p):
        ring = PolyRing(p, 3)
        rng = Rng(500 + p)
        z = ring.variables()

        def scalar():
            return ring.parse(str(1 + rng.below(p - 1)))

        # every variable, forms whose last variable is z0, z1 or z2 (no z_n
        # term), and random forms
        forms = list(z) + [
            sum((scalar() * v for v in z[: j + 1]), ring.zero) for j in range(3)
        ]
        forms += [ring.random_form(1, rng) for _ in range(6)]
        without_zn = 0
        for trial, h in enumerate(f for f in forms if not f.is_zero()):
            without_zn += h.terms[-1][0] != z[-1].terms[0][0]
            # components along h, embedded and not, beside a random ideal
            B = random_ideal(ring, rng, 2, 2)
            along = Ideal(ring, [h, ring.random_form(1, rng)])
            I = oracles.ideal_product(B, oracles.ideal_product(along, along) if trial % 2 else along)
            S = linear_saturation(I, h)
            assert S.equals(oracles.saturated_by(I, h)), (p, trial)
            TestCanonicalPresentation._assert_canonical(S)
        assert without_zn >= 6

    def test_edge_cases(self, ring3):
        z = ring3.variables()
        unit = (ring3.one,)
        assert linear_saturation(Ideal(ring3, [z[0]]), ring3.zero).gens == unit
        assert linear_saturation(Ideal(ring3, []), ring3.zero).gens == unit
        assert linear_saturation(Ideal(ring3, []), z[3]).is_zero()
        assert linear_saturation(Ideal(ring3, []), z[1]).is_zero()
        with pytest.raises(ValueError):
            linear_saturation(Ideal(ring3, [z[0]]), z[3] * z[3])
        I = Ideal(ring3, [z[0] * z[3], z[1] * z[3] ** 2])
        assert linear_saturation(I, z[3]).equals(Ideal(ring3, [z[0], z[1]]))
        assert linear_saturation(I, z[3] - z[2]).equals(I)
        # h without a z_n term: its last variable is exchanged with z_n
        J = Ideal(ring3, [z[0] * z[1], z[2] * z[1] ** 2, z[3] ** 3])
        assert linear_saturation(J, z[1]).equals(Ideal(ring3, [z[0], z[2], z[3] ** 3]))
        line = Ideal(ring3, [z[0], z[2]])
        h = z[0] + z[1]
        assert linear_saturation(oracles.ideal_product(line, Ideal(ring3, [h])), h).equals(line)
        # nothing divided out, and still canonical: ascending, monic
        assert linear_saturation(Ideal(ring3, [z[0] + z[2], z[2]]), h).gens == (z[2], z[0])

    @pytest.mark.parametrize(
        "n, r, section_degree, seeds",
        [(3, 3, 2, range(1, 41)), (4, 3, 2, range(1, 11)), (4, 4, 2, range(1, 11)),
         (5, 5, 2, range(1, 6)), (6, 5, 2, range(1, 6))],
    )
    def test_kernel_sections_match_the_double_quotient(self, n, r, section_degree, seeds):
        ring = PolyRing(P, n)
        for seed in seeds:
            spec = ConstructionSpec(1, r, 1, section_degree, n)
            top, cut, fell_back = _routes(ring, spec, seed)
            assert not fell_back, seed
            assert top.equals(cut) and top.gens == cut.gens, seed

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_small_fields_fall_back_and_match(self, p):
        # a linear form that vanishes on a top component (or h = 0) is
        # common here; the fallback then cuts, and the results agree
        ring = PolyRing(p, 3)
        routes = Counter()
        for seed in range(1, 21):
            spec = ConstructionSpec(1, 3, 1, 2, 3)
            try:
                top, cut, fell_back = _routes(ring, spec, seed)
            except ConstructionError:
                continue  # no matrix or no regular section at this seed
            assert top.equals(cut) and top.gens == cut.gens, seed
            routes[fell_back] += 1
        assert routes[True] >= 1 and routes[False] >= 1, routes


class TestIdealBasics:
    def test_contains_and_equals(self, ring3):
        I = Ideal(ring3, [ring3.parse("z0"), ring3.parse("z1")])
        J = Ideal(ring3, [ring3.parse("z0+z1"), ring3.parse("z0-z1")])
        assert I.equals(J)
        assert I.contains(ring3.parse("z0^2+z1^2"))
        assert not I.contains(ring3.parse("z2"))

    def test_sum_and_product(self, ring3):
        I = Ideal(ring3, [ring3.variables()[0]])
        J = Ideal(ring3, [ring3.variables()[1]])
        prod = oracles.ideal_product(I, J)
        assert prod.contains(ring3.parse("z0*z1"))
        assert not prod.contains(ring3.variables()[0])

    def test_normal_form_linearity(self, ring3):
        rng = Rng(59)
        I = random_ideal(ring3, rng, 2, 2)
        f = ring3.random_form(3, rng)
        g = ring3.random_form(3, rng)
        assert I.normal_form(f + g) == I.normal_form(f) + I.normal_form(g)

    def test_minimal_generators(self, ring3):
        I = Ideal(
            ring3,
            [
                ring3.parse("z0"),
                ring3.parse("z1"),
                ring3.parse("z0+z1"),
                ring3.parse("z0*z2"),
            ],
        )
        mg = I.minimal_generators()
        assert len(mg) == 2
        assert Ideal(ring3, list(mg)).equals(Ideal(ring3, [ring3.parse("z0"), ring3.parse("z1")]))

    def test_affine_dimension(self, ring3):
        assert affine_dimension(Ideal(ring3, [ring3.variables()[0]])) == 3
        full = Ideal(ring3, list(ring3.variables()))
        assert affine_dimension(full) == 0
        assert Ideal(ring3, [ring3.parse("z0*z1")]).codimension() == 1

    def test_zero_ideal(self, ring3):
        Z = Ideal(ring3, [])
        assert Z.is_zero()
        assert affine_dimension(Z) == 4

    def test_dimension_from_series_matches_subset_scan(self):
        # sparse forms over small fields degenerate often, so the
        # dimensions spread over the whole range
        seen = Counter()
        for p in (3, 5, 7):
            rng = Rng(70 + p)
            for nvars in range(1, 9):
                ring = PolyRing(p, nvars - 1)
                ideals = [Ideal(ring, []), Ideal(ring, [ring.one]), Ideal(ring, [ring.parse("2")])]
                for _ in range(4):
                    count = 1 + rng.below(min(nvars, 4))
                    forms = [ring.sparse_form(1 + rng.below(2), rng) for _ in range(count)]
                    ideals.append(Ideal(ring, forms))
                for I in ideals:
                    dim = affine_dimension(I)
                    assert dim == oracles.scan_dimension(I), (p, nvars, I.gens)
                    assert I.codimension() == nvars - dim
                    seen[dim] += 1
        assert seen[-1] == 48 and seen[8] >= 3
        assert all(seen[d] for d in range(9))
