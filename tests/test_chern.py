"""Twist arithmetic: Chern coefficients, degree predictions, expected shapes."""

import pytest

from brforge.chern import (
    BettiTable,
    ChernReport,
    GenBRSpec,
    TwistSpec,
    chern_coefficients,
    degree_formula_r3,
    elementary_symmetric,
    expected_resolution,
    expected_resolution_aci,
    expected_resolution_r3,
)
from brforge.ring import Rng

import oracles


class TestElementarySymmetric:
    def test_small_cases(self):
        assert elementary_symmetric([1, 2, 3], 0) == 1
        assert elementary_symmetric([1, 2, 3], 1) == 6
        assert elementary_symmetric([1, 2, 3], 2) == 11
        assert elementary_symmetric([1, 2, 3], 3) == 6
        assert elementary_symmetric([1, 2, 3], 4) == 0
        assert elementary_symmetric([1, 2, 3], -1) == 0
        assert elementary_symmetric([], 0) == 1

    def test_generating_function(self):
        # prod(1 + v x) expanded at x = 1 equals sum of all e_k
        vals = [2, 5, 7, 11]
        total = 1
        for v in vals:
            total *= 1 + v
        assert total == sum(elementary_symmetric(vals, k) for k in range(5))


class TestTwistSpec:
    def test_derived_quantities(self):
        spec = TwistSpec(a=(2,) * 6, b=(3,), n=6)
        assert spec.r == 5
        assert spec.c1 == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            TwistSpec(a=(), b=(1,), n=3)
        with pytest.raises(ValueError):
            TwistSpec(a=(1, 2), b=(1, 2), n=3)
        with pytest.raises(ValueError):
            TwistSpec(a=(1, 2, 3), b=(1,), n=3, p=(0, 0))


class TestChernCoefficients:
    def test_linear_twists_high_rank(self):
        rep = chern_coefficients(TwistSpec(a=(2,) * 6, b=(3,), n=6))
        assert rep.c1 == 9
        assert rep.r == 5
        assert rep.expected_degree == 21
        assert rep.coefficients == (1, 9, 33, 61, 57, 21, 1)

    def test_cubic_entries(self):
        rep = chern_coefficients(TwistSpec(a=(3,) * 4, b=(5,), n=6))
        assert rep.c1 == 7
        assert rep.expected_degree == 13

    def test_quadric_entries_plane_target(self):
        rep = chern_coefficients(TwistSpec(a=(2,) * 4, b=(3,), n=3))
        assert rep.expected_degree == 5

    def test_codim_exceeds_ambient(self):
        with pytest.raises(ValueError):
            chern_coefficients(TwistSpec(a=(1,) * 5, b=(1,), n=3))

    def test_as_dict(self):
        rep = chern_coefficients(TwistSpec(a=(2,) * 4, b=(3,), n=3))
        d = rep.as_dict()
        assert d["expected_degree"] == 5
        assert d["c1"] == rep.c1
        assert d["coefficients"] == list(rep.coefficients)

    def test_geometric_series_check(self):
        # (1 + w)^3 / (1 + w) = (1 + w)^2 exactly
        rep = chern_coefficients(TwistSpec(a=(1, 1, 1), b=(1,), n=4))
        assert rep.coefficients == (1, 2, 1, 0, 0)


class TestDegreeFormulaR3:
    def test_pinned_value(self):
        assert degree_formula_r3([6] * 5, [9, 9]) == 54

    def test_koszul_case(self):
        assert degree_formula_r3([2, 2, 2, 2], [3]) == 5

    def test_matches_series_coefficient(self):
        rng = Rng(17)
        for _ in range(200):
            t = 1 + rng.below(4)
            a = tuple(1 + rng.below(9) for _ in range(t + 3))
            b = tuple(1 + rng.below(9) for _ in range(t))
            rep = chern_coefficients(TwistSpec(a=a, b=b, n=6))
            assert degree_formula_r3(a, b) == rep.coefficients[3]


class TestExpectedShape:
    def shape(self):
        return oracles.shape_of([{2: 1, 3: 3}, {5: 8, 6: 1}, {5: 1, 6: 5}])

    def test_round_trips(self):
        s = self.shape()
        assert oracles.step_dicts(s) == [{2: 1, 3: 3}, {5: 8, 6: 1}, {5: 1, 6: 5}]
        assert s.as_dict() == {
            (0, 2): 1,
            (0, 3): 3,
            (1, 5): 8,
            (1, 6): 1,
            (2, 5): 1,
            (2, 6): 5,
        }
        assert oracles.total_rank(s) == 19
        assert s.lines() == ["0 2 1", "0 3 3", "1 5 8", "1 6 1", "2 5 1", "2 6 5"]

    def test_zero_ranks_dropped(self):
        s = oracles.shape_of([{2: 1, 4: 0}])
        assert oracles.step_dicts(s) == [{2: 1}]

    def test_cancel_adjacent(self):
        s = oracles.cancel_adjacent(self.shape(), 1, 5)
        assert oracles.step_dicts(s) == [{2: 1, 3: 3}, {5: 7, 6: 1}, {6: 5}]

    def test_cancel_adjacent_missing_rank(self):
        with pytest.raises(ValueError):
            oracles.cancel_adjacent(self.shape(), 0, 9)
        with pytest.raises(ValueError):
            oracles.cancel_adjacent(self.shape(), 2, 5)  # next step is past the end

    def test_ghost_difference_exact_match(self):
        s = self.shape()
        assert s.ghost_difference(s.as_dict()) == {}

    def test_ghost_difference_two_pairs(self):
        s = self.shape()
        observed = {(0, 2): 1, (0, 3): 3, (1, 5): 7, (2, 6): 4}
        assert s.ghost_difference(observed) == {(1, 5): 1, (1, 6): 1}

    def test_ghost_difference_extra_generator(self):
        s = oracles.shape_of([{1: 1}])
        assert s.ghost_difference({(0, 2): 1}) is None

    def test_ghost_difference_unmatched_deficit(self):
        s = oracles.shape_of([{1: 2}, {2: 1}])
        assert s.ghost_difference({(0, 1): 1, (1, 2): 1}) is None

    def test_ghost_difference_inverts_cancel(self):
        s = self.shape()
        cancelled = oracles.cancel_adjacent(oracles.cancel_adjacent(s, 1, 5), 1, 6)
        assert s.ghost_difference(cancelled.as_dict()) == {(1, 5): 1, (1, 6): 1}


class TestExpectedResolution:
    def test_rank3_closed_form_matches_general(self):
        rng = Rng(29)
        for _ in range(60):
            t = 1 + rng.below(3)
            a = tuple(sorted(1 + rng.below(5) for _ in range(t + 3)))
            b_lo = max(a) + 1
            b = tuple(sorted(b_lo + rng.below(4) for _ in range(t)))
            closed = expected_resolution_r3(a, b)
            general = expected_resolution(TwistSpec(a=a, b=b, n=6))
            assert closed.as_dict() == general.as_dict()

    def test_rank3_needs_three_more_sources(self):
        with pytest.raises(ValueError):
            expected_resolution_r3([1, 1, 1], [1])

    def test_rank5_shape(self):
        shape = expected_resolution(TwistSpec(a=(2,) * 6, b=(3,), n=6))
        assert shape.as_dict() == {
            (0, 2): 6,
            (0, 3): 1,
            (1, 3): 1,
            (1, 4): 21,
            (2, 5): 21,
            (2, 6): 1,
            (3, 6): 1,
            (3, 7): 6,
            (4, 9): 1,
        }

    def test_rank3_quadratic_shape(self):
        # four quadric entries against a cubic target: five points in space
        shape = expected_resolution_r3((2, 2, 2, 2), (3,))
        assert shape.as_dict() == {(0, 2): 5, (1, 3): 5, (2, 5): 1}

    def test_top_twist_is_c1(self):
        spec = TwistSpec(a=(1, 2, 3, 4), b=(2,), n=6)
        shape = expected_resolution(spec)
        assert oracles.step_dicts(shape)[-1] == {spec.c1: 1}

    def test_shape_is_degreewise_symmetric(self):
        # with the ambient R prepended, the predicted quotient complex is
        # self-dual: rank at (j, d) matches rank at (r - j, c1 - d)
        rng = Rng(31)
        for _ in range(40):
            t = 1 + rng.below(3)
            r = 3 + 2 * rng.below(2)
            a = tuple(1 + rng.below(4) for _ in range(t + r))
            b = tuple(max(a) + 1 + rng.below(3) for _ in range(t))
            spec = TwistSpec(a=a, b=b, n=9)
            shape = expected_resolution(spec)
            aug = {(0, 0): 1}
            for (k, d), v in shape.as_dict().items():
                aug[(k + 1, d)] = v
            dual = {(r - j, spec.c1 - d): v for (j, d), v in aug.items()}
            assert dual == aug


class TestGenBRSpec:
    def spec(self):
        return GenBRSpec(
            e1=(2,) * 5, e2=(3,) * 5, ci_degrees=(3, 3, 3), ell=-1, d=6
        )

    def test_derived_quantities(self):
        spec = self.spec()
        assert spec.alpha == 9
        assert spec.b == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            GenBRSpec(e1=(2,), e2=(3, 3), ci_degrees=(3, 3, 3), ell=-1, d=6)
        with pytest.raises(ValueError):
            GenBRSpec(e1=(2,), e2=(3,), ci_degrees=(3, 3, 3), ell=-1, d=3)

    def test_aci_shape(self):
        shape = expected_resolution_aci(self.spec())
        assert oracles.step_dicts(shape) == [{2: 1, 3: 3}, {5: 8, 6: 1}, {5: 1, 6: 5}]

    def test_aci_total_rank_parity(self):
        # four generators resolve through an odd-length chain: rank alternates
        shape = expected_resolution_aci(self.spec())
        dicts = oracles.step_dicts(shape)
        assert sum(dicts[0].values()) == 4
        r0, r1, r2 = (sum(d.values()) for d in dicts)
        assert 1 - r0 + r1 - r2 == 0


def _random_twist_spec(rng: Rng) -> TwistSpec:
    t = 1 + rng.below(2)
    r = 2 + rng.below(4)
    a = tuple(1 + rng.below(5) for _ in range(t + r))
    b = tuple(1 + rng.below(6) for _ in range(t))
    p = tuple(rng.below(3) for _ in range(1 + rng.below(r - 1)))
    return TwistSpec(a=a, b=b, n=r + rng.below(3), p=p)


def _random_aci_spec(rng: Rng) -> GenBRSpec:
    k = 1 + rng.below(5)
    ci = tuple(2 + rng.below(3) for _ in range(3))
    return GenBRSpec(
        e1=tuple(1 + rng.below(4) for _ in range(k)),
        e2=tuple(2 + rng.below(4) for _ in range(k)),
        ci_degrees=ci,
        ell=rng.below(5) - 2,
        d=max(ci) + 1 + rng.below(3),
    )


def _perturbed(table: dict, rng: Rng) -> dict:
    """The table with a few ranks moved by one, steps past its last one
    included, so that some ranks go negative."""
    out = dict(table)
    keys = sorted(out) or [(0, 0)]
    for _ in range(1 + rng.below(3)):
        k, d = keys[rng.below(len(keys))]
        key = (k + rng.below(3), d + rng.below(3) - 1)
        out[key] = out.get(key, 0) + (1 if rng.bit() else -1)
    return out


class TestAgainstReferenceShapes:
    """The builders and ghost_difference against the per-step dict shapes of
    oracles, the representation BettiTable replaced."""

    def test_expected_resolution(self):
        rng = Rng(53)
        auxiliary = set()
        for _ in range(240):
            spec = _random_twist_spec(rng)
            auxiliary.add(len(spec.p))
            got, ref = expected_resolution(spec), oracles.reference_resolution(spec)
            assert got.as_dict() == ref.as_betti_dict(), spec
            assert got.lines() == ref.lines(), spec
        assert auxiliary == {1, 2, 3, 4}

    def test_closed_forms(self):
        rng = Rng(59)
        for _ in range(100):
            t = 1 + rng.below(3)
            a = tuple(1 + rng.below(6) for _ in range(t + 3))
            b = tuple(1 + rng.below(6) for _ in range(t))
            got, ref = expected_resolution_r3(a, b), oracles.reference_resolution_r3(a, b)
            assert (got.as_dict(), got.lines()) == (ref.as_betti_dict(), ref.lines())
            spec = _random_aci_spec(rng)
            got, ref = expected_resolution_aci(spec), oracles.reference_resolution_aci(spec)
            assert (got.as_dict(), got.lines()) == (ref.as_betti_dict(), ref.lines())

    def test_ghost_difference(self):
        rng = Rng(61)
        outcomes = set()

        def check(shape: BettiTable, ref, observed: dict) -> None:
            got = shape.ghost_difference(observed)
            assert got == ref.ghost_difference(observed), (shape, observed)
            outcomes.add("refused" if got is None else "cancelled" if got else "exact")

        for _ in range(200):
            spec = _random_twist_spec(rng)
            shape, ref = expected_resolution(spec), oracles.reference_resolution(spec)
            observed = shape
            for _ in range(rng.below(4)):
                pairs = [
                    (k, d)
                    for (k, d), v in observed.data
                    if observed.as_dict().get((k + 1, d), 0)
                ]
                if pairs:
                    observed = oracles.cancel_adjacent(observed, *pairs[rng.below(len(pairs))])
            check(shape, ref, observed.as_dict())
            check(shape, ref, _perturbed(observed.as_dict(), rng))
        assert outcomes == {"refused", "cancelled", "exact"}

    def test_ghost_difference_empty_trailing_steps(self):
        rng = Rng(67)
        for _ in range(100):
            dicts = [
                {2 + rng.below(4): 1 + rng.below(3) for _ in range(1 + rng.below(3))}
                for _ in range(1 + rng.below(3))
            ]
            dicts += [{}] * (1 + rng.below(3))
            shape, ref = oracles.shape_of(dicts), oracles.ReferenceShape.from_dicts(dicts)
            for observed in (shape.as_dict(), _perturbed(shape.as_dict(), rng)):
                assert shape.ghost_difference(observed) == ref.ghost_difference(observed)
