from itertools import product

import pytest

from brforge.poly import PolyRing
from brforge.ring import (
    COMP_BITS,
    MAX_DEGREE,
    Rng,
    key_component,
    key_degree,
    key_divides,
    key_exponents,
    key_lcm,
    frame_unit,
    monomial_key,
)

# every monomial of degree <= 4 in 4 variables
SMALL = [e for e in product(range(5), repeat=4) if sum(e) <= 4]


def degrevlex_cmp(a, b):
    """Reference three-way degrevlex comparison of exponent tuples: higher
    degree wins; on equal degree the smaller exponent at the last
    differing variable wins."""
    if sum(a) != sum(b):
        return 1 if sum(a) > sum(b) else -1
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return 1 if x < y else -1
    return 0


class TestPrimeField:
    """GF(p) as a PolyRing holds it: the prime int p, checked once."""

    def test_arithmetic(self):
        ring = PolyRing(23, 1)
        assert ring.from_terms({0: -5}).terms == ((0, 18),)
        assert ring.parse("7") * ring.parse("10") == ring.one

    def test_symmetric_representative(self):
        ring = PolyRing(23, 1)
        assert [ring.format(ring.from_terms({0: c})) for c in (11, 12, 22, -1)] == [
            "11",
            "-11",
            "-1",
            "-1",
        ]
        assert ring.format(ring.parse("12*z0 + 11*z1")) == "-11*z0 + 11*z1"

    @pytest.mark.parametrize(
        "bad, message",
        [
            pytest.param(bad, message, id=str(bad))
            for bad, message in [
                (1, "characteristic must be an int in (2, 2**31): 1"),
                (2, "characteristic must be an int in (2, 2**31): 2"),
                (4, "characteristic must be prime: 4"),
                (91, "characteristic must be prime: 91"),
                (32004, "characteristic must be prime: 32004"),
                (2**31 + 11, "characteristic must be an int in (2, 2**31): 2147483659"),
            ]
        ],
    )
    def test_rejects_bad_characteristic(self, bad, message):
        with pytest.raises(ValueError) as err:
            PolyRing(bad, 3)
        assert str(err.value) == message

    def test_accepts_default_characteristic(self):
        assert PolyRing(32003, 3).p == 32003


class TestRng:
    def test_pinned_stream(self):
        # documented draw protocol; changing it silently would break
        # reproducibility of every seeded artifact
        rng = Rng(7)
        assert [rng.below(100) for _ in range(5)] == [87, 4, 46, 3, 74]

    def test_determinism(self):
        a = Rng(123456)
        b = Rng(123456)
        assert [a.next64() for _ in range(20)] == [b.next64() for _ in range(20)]

    def test_below_bounds(self):
        rng = Rng(1)
        for _ in range(200):
            assert 0 <= rng.below(7) < 7
        with pytest.raises(ValueError):
            rng.below(0)

    def test_bit(self):
        rng = Rng(2)
        assert all(rng.bit() in (0, 1) for _ in range(50))


class TestMonomial:
    def test_basic_ops(self):
        a = monomial_key((2, 0, 1))
        b = monomial_key((1, 1, 0))
        assert key_degree(a) == 3
        assert a + b == monomial_key((3, 1, 1))
        assert key_lcm(a, b) == monomial_key((2, 1, 1))
        assert not key_divides(b, a)
        assert key_divides(monomial_key((1, 0, 0)), a)
        assert a - monomial_key((1, 0, 1)) == monomial_key((1, 0, 0))
        assert monomial_key((0, 0, 0)) == 0

    def test_invalid(self, ring3):
        with pytest.raises(ValueError):
            monomial_key((1, -1))
        with pytest.raises(ValueError):
            ring3.from_dict({(0, -1, 0, 0): 1})


class TestDegrevlexKeys:
    def test_variable_order(self):
        # z0 > z1 > z2
        assert monomial_key((1, 0, 0)) > monomial_key((0, 1, 0))
        assert monomial_key((0, 1, 0)) > monomial_key((0, 0, 1))

    def test_degree_dominates(self):
        assert monomial_key((0, 0, 3)) > monomial_key((2, 0, 0))

    def test_revlex_tiebreak(self):
        # on equal degree the smaller exponent at the last variable wins:
        # z1^2 > z0*z2
        assert monomial_key((0, 2, 0)) > monomial_key((1, 0, 1))

    def test_matches_reference_comparator(self):
        for a in SMALL:
            for b in SMALL:
                ka, kb = monomial_key(a), monomial_key(b)
                assert (ka > kb) - (ka < kb) == degrevlex_cmp(a, b), (a, b)


class TestPackedKeys:
    def test_round_trip(self):
        for e in SMALL:
            for comp in (0, 1, 7):
                t = monomial_key(e) - comp
                assert key_exponents(t, 4) == e
                assert key_component(t) == comp
                assert key_degree(t) == sum(e)

    def test_product_adds_keys(self):
        for a in SMALL:
            for b in SMALL:
                prod = tuple(x + y for x, y in zip(a, b))
                assert monomial_key(a) + monomial_key(b) == monomial_key(prod)

    def test_guard_bit_divisibility(self):
        for a in SMALL:
            for b in SMALL:
                want = all(x <= y for x, y in zip(a, b))
                ka, kb = monomial_key(a), monomial_key(b)
                assert key_divides(ka, kb) == want, (a, b)
                assert key_divides(ka - 3, kb - 3) == want, (a, b)
                # a term never divides one in another component
                assert not key_divides(ka - 3, kb - 2)

    def test_lcm(self):
        for a in SMALL:
            for b in SMALL:
                lcm = tuple(max(x, y) for x, y in zip(a, b))
                assert key_lcm(monomial_key(a) - 2, monomial_key(b) - 2) == monomial_key(lcm) - 2

    def test_extreme_exponents(self):
        a = monomial_key((MAX_DEGREE, 0, 0))
        b = monomial_key((0, 0, MAX_DEGREE))
        assert key_exponents(a, 3) == (MAX_DEGREE, 0, 0)
        assert key_lcm(a, b) == a + b
        assert not key_divides(a, b) and not key_divides(b, a)

    def test_out_of_range_raises(self, ring3):
        with pytest.raises(ValueError):
            monomial_key((MAX_DEGREE + 1,))
        with pytest.raises(ValueError):
            ring3.parse(f"z0^{MAX_DEGREE + 1}")
        with pytest.raises(ValueError):
            ring3.parse(f"z1^{MAX_DEGREE}*z2")
        with pytest.raises(ValueError):
            ring3.from_dict({(MAX_DEGREE, 1, 0, 0): 1})
        with pytest.raises(ValueError):
            ring3.variables()[0] ** MAX_DEGREE * ring3.variables()[1]
        # the bound itself is fine, and wraps nothing
        f = ring3.parse(f"z3^{MAX_DEGREE}")
        assert f.as_dict() == {(0, 0, 0, MAX_DEGREE): 1}


class TestModuleOrders:
    def test_term_over_position(self):
        # same monomial: the lower component wins (= larger term)
        m = monomial_key((1, 0))
        assert m - 0 > m - 1 > m - 5
        # a larger monomial beats any component index
        assert monomial_key((2, 0)) - 5 > monomial_key((1, 0)) - 0
        for a in SMALL:
            for b in SMALL:
                for ca, cb in ((0, 1), (1, 0), (2, 2)):
                    ta = monomial_key(a) - ca
                    tb = monomial_key(b) - cb
                    want = degrevlex_cmp(a, b) or (cb > ca) - (cb < ca)
                    assert (ta > tb) - (ta < tb) == want


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _degrevlex(e):
    """Sort key: the larger key is the larger monomial in degrevlex."""
    return sum(e), tuple(-x for x in reversed(e))


def _cmp(a, b):
    return (a > b) - (a < b)


class TestSchreyerFrames:
    """Terms m*e_j of the order induced by columns with leads lead_j are
    (key(m) << shift) + frame_unit(lead_j, j).  Two nested frames over a
    rank-two term over position module, against a reference that compares
    m*lead_j exponent-wise, then the components down the frame, lower
    first."""

    MONOS = [e for e in product(range(3), repeat=3) if sum(e) <= 2]
    # leads (component, exponents) in the base module; 0 and 3 tie, and 0
    # and 1 share a monomial
    BASE = [(0, (1, 0, 0)), (1, (1, 0, 0)), (0, (0, 1, 0)), (0, (1, 0, 0))]
    # leads (monomial, j) in the first frame; 0 and 1 share a monomial
    # over tied leads
    FIRST = [((0, 0, 1), 0), ((0, 0, 1), 3), ((1, 0, 0), 2)]

    def first(self, m, j):
        comp, e = self.BASE[j]
        return (monomial_key(m) << COMP_BITS) + frame_unit(monomial_key(e) - comp, j)

    def second(self, m, k):
        mk, j = self.FIRST[k]
        return (monomial_key(m) << 2 * COMP_BITS) + frame_unit(self.first(mk, j), k)

    def terms(self):
        """(shift, [(term, reference key, exponents, component)]) per frame."""
        first = []
        for m in self.MONOS:
            for j, (comp, e) in enumerate(self.BASE):
                first.append((self.first(m, j), (_degrevlex(_add(m, e)), -comp, -j), m, j))
        second = []
        for m in self.MONOS:
            for k, (mk, j) in enumerate(self.FIRST):
                comp, e = self.BASE[j]
                ref = (_degrevlex(_add(_add(m, mk), e)), -comp, -j, -k)
                second.append((self.second(m, k), ref, m, k))
        return [(COMP_BITS, first), (2 * COMP_BITS, second)]

    def test_integer_order_matches_reference(self):
        for _, terms in self.terms():
            for ta, ra, _, _ in terms:
                for tb, rb, _, _ in terms:
                    assert _cmp(ta, tb) == _cmp(ra, rb), (ra, rb)

    def test_component_and_degree(self):
        for shift, terms in self.terms():
            for t, ref, m, j in terms:
                assert key_component(t) == j
                assert key_degree(t, shift) == ref[0][0]

    def test_multiplying_adds_the_shifted_key(self):
        for shift, terms in self.terms():
            build = self.first if shift == COMP_BITS else self.second
            for t, _, m, j in terms:
                for x in self.MONOS:
                    assert t + (monomial_key(x) << shift) == build(_add(m, x), j)

    def test_divisibility_and_lcm(self):
        for shift, terms in self.terms():
            build = self.first if shift == COMP_BITS else self.second
            for ta, _, ma, ja in terms:
                for tb, _, mb, jb in terms:
                    want = ja == jb and all(x <= y for x, y in zip(ma, mb))
                    assert key_divides(ta, tb, shift) == want, (ma, ja, mb, jb)
                    if ja == jb:
                        lcm = tuple(max(x, y) for x, y in zip(ma, mb))
                        assert key_lcm(ta, tb, shift) == build(lcm, ja)
