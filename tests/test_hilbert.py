"""Hilbert data against the dense linear-algebra oracle and known schemes."""

import pytest

from brforge.hilbert import hilbert_function_values, hilbert_numerator, hilbert_report
from brforge.ideals import Ideal
from brforge.poly import PolyRing
from brforge.ring import Rng, monomial_key

import oracles

from conftest import random_ideal, random_monomial_ideal


class TestNumeratorAgainstOracle:
    def test_random_monomial_ideals(self, ring3):
        rng = Rng(31)
        for _ in range(25):
            I = random_monomial_ideal(ring3, rng, 2 + rng.below(3), 3)
            rep = hilbert_report(I)
            upto = len(rep.first_series) + 2
            values = oracles.hilbert_function(list(I.gens), ring3.nvars, 32003, upto)
            assert hilbert_function_values(rep.first_series, ring3.nvars, upto) == values
            # an expansion stopped before the numerator's end
            assert hilbert_function_values(rep.first_series, ring3.nvars, 1) == values[:2]

    def test_random_polynomial_ideals(self, ring2):
        rng = Rng(32)
        for _ in range(25):
            I = random_ideal(ring2, rng, 2, 3)
            rep = hilbert_report(I)
            upto = len(rep.first_series) + 2
            assert (
                hilbert_function_values(rep.first_series, ring2.nvars, upto)
                == oracles.hilbert_function(list(I.gens), ring2.nvars, 32003, upto)
            )

    def test_keys_of_messy_monomial_sets(self):
        # pure powers, repeated generators and multiples of others, as keys
        rng = Rng(33)
        for trial in range(40):
            nvars = 1 + rng.below(4)
            ring = PolyRing(7, nvars - 1)
            gens = []
            for _ in range(1 + rng.below(5)):
                d = 1 + rng.below(3)
                if rng.bit():
                    exps = [0] * nvars
                    exps[rng.below(nvars)] = d
                    gens.append(tuple(exps))
                else:
                    pool = oracles.exponents_of_degree(nvars, d)
                    gens.append(pool[rng.below(len(pool))])
            gens.append(gens[rng.below(len(gens))])
            base, j = gens[rng.below(len(gens))], rng.below(nvars)
            gens.append(tuple(e + (i == j) for i, e in enumerate(base)))
            keys = [monomial_key(e) for e in gens]
            top = sum(max(e[i] for e in gens) for i in range(nvars))
            dense = oracles.hilbert_numerator_dense(
                [ring.from_dict({e: 1}) for e in gens], nvars, 7, top
            )
            while dense and dense[-1] == 0:
                dense.pop()
            assert hilbert_numerator(keys, nvars) == dense, (trial, gens)
            assert hilbert_numerator(reversed(keys), nvars) == dense

    def test_full_ring_and_unit_ideal(self, ring3):
        assert hilbert_numerator((), ring3.nvars) == [1]
        assert hilbert_numerator((0,), ring3.nvars) == []


class TestKnownSchemes:
    def test_twisted_cubic(self, ring3):
        I = Ideal(
            ring3,
            [
                ring3.parse("z1^2-z0*z2"),
                ring3.parse("z1*z2-z0*z3"),
                ring3.parse("z2^2-z1*z3"),
            ],
        )
        rep = hilbert_report(I)
        assert rep.codimension == 2
        assert rep.degree == 3
        assert rep.second_series == (1, 2)
        assert rep.arithmetic_genus == 0

    def test_complete_intersection(self, ring3):
        rng = Rng(41)
        f = ring3.random_form(2, rng)
        g = ring3.random_form(3, rng)
        I = Ideal(ring3, [f, g])
        rep = hilbert_report(I)
        assert rep.codimension == 2
        assert rep.degree == 6
        # numerator of a (2,3) complete intersection
        assert rep.second_series == (1, 2, 2, 1)

    def test_degenerate_plane(self, ring3):
        I = Ideal(ring3, [ring3.parse("z3")])
        rep = hilbert_report(I)
        assert rep.degree == 1
        assert rep.affine_dimension == 3
        assert rep.codimension == 1

    def test_point_with_multiplicity(self, ring3):
        I = Ideal(ring3, [ring3.parse(t) for t in ("z1^2", "z2^2", "z1*z2-z3^2", "z1*z3", "z2*z3")])
        rep = hilbert_report(I)
        assert rep.degree == 5
        assert rep.second_series == (1, 3, 1)
        assert rep.affine_dimension == 1

    def test_degree_against_difference_oracle(self, ring3):
        rng = Rng(42)
        for _ in range(10):
            I = random_monomial_ideal(ring3, rng, 3, 3)
            rep = hilbert_report(I)
            if rep.affine_dimension == 0:
                continue
            upto = len(rep.first_series) + rep.affine_dimension + 2
            hf = oracles.hilbert_function(list(I.gens), ring3.nvars, 32003, upto)
            # far past the numerator the function is polynomial; repeated
            # differences leave the degree
            window = hf[len(rep.first_series) :]
            assert oracles.degree_by_differences(window, rep.affine_dimension) == rep.degree


class TestHilbertPolynomial:
    def test_genus_of_plane_curve(self, ring2):
        # smooth plane quartic: genus 3
        rng = Rng(43)
        I = Ideal(ring2, [ring2.random_form(4, rng)])
        rep = hilbert_report(I)
        assert rep.degree == 4
        assert rep.arithmetic_genus == 3
