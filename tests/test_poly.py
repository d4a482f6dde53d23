import math

import pytest

from brforge.poly import PolyRing
from brforge.ring import Rng

import oracles


class TestParseFormat:
    def test_basic_forms(self, ring3):
        f = ring3.parse("z1^2 - z0*z2")
        assert f.degree() == 2
        assert f == ring3.variables()[1] ** 2 - ring3.variables()[0] * ring3.variables()[2]

    def test_zero_and_constants(self, ring3):
        assert ring3.parse("0").is_zero()
        assert ring3.parse("17") == ring3.from_terms({0: 17})
        assert ring3.parse("-1") == ring3.from_terms({0: -1})

    def test_large_coefficients_reduce(self, ring3):
        # fixture files carry integers above the characteristic
        f = ring3.parse("5976*z2^6-32430*z2^3*z3^3-90965*z3^6")
        assert f.terms[0][1] == 5976 % 32003
        g = ring3.parse("32003*z0")
        assert g.is_zero()

    def test_whitespace_and_signs(self, ring3):
        assert ring3.parse(" - z2 ") == -ring3.variables()[2]
        assert ring3.parse("z0 + 2*z1 - 3*z2") == ring3.parse("z0+2*z1-3*z2")

    def test_roundtrip_random(self, ring3):
        rng = Rng(5)
        for d in (1, 2, 3, 4):
            for _ in range(10):
                f = ring3.random_form(d, rng)
                assert ring3.parse(str(f)) == f
                assert ring3.parse(ring3.format(f)) == f

    def test_rejects_garbage(self, ring3):
        for bad in ("z9", "z0^", "q3", "z0**2", "1/2"):
            with pytest.raises(ValueError):
                ring3.parse(bad)


class TestArithmetic:
    def test_ring_axioms_random(self, ring2):
        rng = Rng(11)
        for _ in range(50):
            f = ring2.random_form(1 + rng.below(3), rng)
            g = ring2.random_form(1 + rng.below(3), rng)
            h = ring2.random_form(1 + rng.below(3), rng)
            assert (f + g) * h == f * h + g * h
            assert f * g == g * f
            assert (f - f).is_zero()
            assert (f * g) * h == f * (g * h)

    def test_pow(self, ring2):
        f = ring2.parse("z0+z1")
        assert f**3 == f * f * f
        assert f**0 == ring2.one

    def test_scale_and_monic(self, ring3):
        f = ring3.parse("3*z0^2+6*z1^2")
        assert ring3.parse("2") * f == ring3.parse("6*z0^2+12*z1^2")
        monic = ring3.parse(str(pow(f.terms[0][1], -1, ring3.p))) * f
        assert monic.terms[0][1] == 1
        assert monic == ring3.parse("z0^2+2*z1^2")


class TestDegreesAndShapes:
    def test_exponent_counts(self, ring3):
        # number of monomials of degree d in n+1 variables, each listed once,
        # descending in the ring order
        for d in range(6):
            keys = ring3._keys_of_degree(d)
            assert len(keys) == math.comb(d + 3, 3)
            assert [ring3.exponents(k) for k in keys] == oracles.exponents_of_degree(4, d)

    def test_random_form_homogeneous(self, ring3):
        rng = Rng(3)
        for d in (1, 2, 5):
            f = ring3.random_form(d, rng)
            ok, deg = f.is_homogeneous()
            assert ok and deg == d

    def test_sparse_form_homogeneous(self, ring3):
        rng = Rng(4)
        seen_zero = False
        for _ in range(30):
            f = ring3.sparse_form(2, rng)
            if f.is_zero():
                seen_zero = True
                continue
            ok, deg = f.is_homogeneous()
            assert ok and deg == 2
        # sparse draws may vanish; that is part of the contract
        assert seen_zero or True

    def test_inhomogeneous_detected(self, ring3):
        f = ring3.parse("z0^2+z1")
        ok, deg = f.is_homogeneous()
        assert not ok and deg is None

    def test_degree_of_zero(self, ring3):
        assert ring3.zero.degree() == -1


class TestLastVariable:
    """The helpers behind ideals.linear_saturation: exchanging a variable
    with z_n, replacing z_n by a form, and dividing out the largest power
    of z_n."""

    @pytest.mark.parametrize("p", [3, 32003])
    def test_swap_against_exponent_tuples(self, p):
        ring = PolyRing(p, 3)
        rng = Rng(420 + p)
        for j, v in enumerate(ring.variables()):
            var = v.terms[0][0]
            for _ in range(6):
                f = ring.random_form(rng.below(4), rng)
                swapped = f.swap_last(var)
                expected = {}
                for exps, c in f.as_dict().items():
                    e = list(exps)
                    e[j], e[-1] = e[-1], e[j]
                    expected[tuple(e)] = c
                assert swapped.as_dict() == expected
                assert swapped == ring.from_dict(expected)  # terms in ring order
                assert swapped.swap_last(var) == f
            assert v.swap_last(var) == ring.variables()[-1]

    @pytest.mark.parametrize("p", [3, 7, 32003])
    def test_substitution_against_dense_expansion(self, p):
        ring = PolyRing(p, 3)
        rng = Rng(400 + p)
        for _ in range(12):
            f = ring.random_form(rng.below(4), rng)
            # linear forms, and forms of other degrees: inhomogeneous results
            form = ring.random_form(rng.below(3), rng)
            assert f.substitute_last(form).as_dict() == oracles.substitute_last_dense(f, form, p)
        zn = ring.variables()[-1]
        f = ring.random_form(3, rng)
        assert f.substitute_last(zn) == f
        assert ring.zero.substitute_last(zn) == ring.zero

    def test_division_on_keys(self, ring3):
        zn = ring3.variables()[-1]
        step = zn.terms[0][0]
        rng = Rng(410)
        for e in range(4):
            for _ in range(5):
                g = ring3.random_form(1 + rng.below(3), rng)
                if g.is_zero():
                    continue
                f = g * zn**e
                q = f.divide_out_last()
                k = f.degree() - q.degree()
                # some term of the quotient is free of z_n, and every key
                # moved down by k times z_n's key
                assert min(exps[-1] for exps in q.as_dict()) == 0
                assert k >= e
                assert q.terms == tuple((t - k * step, c) for t, c in f.terms)
                assert q * zn**k == f
        assert zn.divide_out_last() == ring3.one
        assert (zn**3).divide_out_last() == ring3.one
        assert ring3.zero.divide_out_last() == ring3.zero
        free = ring3.parse("z0*z1 - z2^2")
        assert free.divide_out_last() is free
