"""Engine-level checks: Groebner completion, tracked emissions, pruning.

The tracked-mode checks recompute every emitted combination against the
original columns with plain dict arithmetic, so a bookkeeping error in the
engine cannot hide behind itself.
"""

import pytest

from brforge.engine import ModuleGB, minimal_generating_subset, tracked_syzygies, vec_degree
from brforge.ideals import Ideal, poly_to_vec, vec_to_poly
from brforge.poly import PolyRing
from brforge.ring import Rng

import oracles
from oracles import term


def apply_combination(comb, columns, p, nvars):
    """sum over (idx, exps) of c * x^exps * columns[idx], as a plain dict."""
    acc = {}
    for (idx, exps), c in oracles.split_vec(comb, nvars).items():
        for (rc, re), v in oracles.split_vec(columns[idx], nvars).items():
            key = (rc, tuple(a + b for a, b in zip(re, exps)))
            nv = (acc.get(key, 0) + c * v) % p
            if nv:
                acc[key] = nv
            else:
                acc.pop(key, None)
    return acc


def vec_of(ring, text, comp=0):
    return poly_to_vec(ring.parse(text), comp)


class TestCompletion:
    def test_twisted_cubic_buchberger(self, ring3):
        gens = ["z1^2-z0*z2", "z1*z2-z0*z3", "z2^2-z1*z3"]
        gb = ModuleGB(32003, (0,), use_chain=True, use_product=True)
        for g in gens:
            gb.add(vec_of(ring3, g))
        gb.complete()
        # the three minors are already a Groebner basis in degrevlex
        assert len(gb.basis()) == 3
        # Buchberger criterion, checked directly: every S-vector of the
        # final basis reduces to zero
        basis = gb.basis()
        for i in range(len(basis)):
            for j in range(i):
                s = oracles.s_vector(basis[i], basis[j], 32003, ring3.nvars)
                if s is not None:
                    assert not gb.normal_form(s)

    def test_gb_elements_stay_in_ideal(self, ring3):
        rng = Rng(21)
        gens = [ring3.random_form(2, rng) for _ in range(3)]
        I = Ideal(ring3, gens)
        for g in I.groebner():
            assert oracles.in_ideal(g, gens, ring3.nvars, 32003)

    def test_normal_form_fixed_point(self, ring3):
        I = Ideal(ring3, [ring3.parse("z1^2-z0*z2"), ring3.parse("z2^3")])
        f = ring3.parse("z1^2*z2 + z0^3")
        nf = I.normal_form(f)
        assert I.normal_form(nf) == nf
        assert oracles.in_ideal(f - nf, list(I.gens), ring3.nvars, 32003)

    def test_rejects_zero_vector(self):
        gb = ModuleGB(32003, (0,))
        with pytest.raises(ValueError):
            gb.add({})

    def test_product_criterion_needs_rank_one(self):
        with pytest.raises(ValueError):
            ModuleGB(32003, (0, 0), use_product=True)


class TestTrackedSyzygies:
    def test_koszul_relations_of_variables(self, ring3):
        columns = [poly_to_vec(v) for v in ring3.variables()]
        syz = tracked_syzygies(columns, 32003, (0,), ring3.nvars)
        assert len(syz) == 6
        degrees = [vec_degree(s, [1, 1, 1, 1]) for s in syz]
        assert degrees == [2] * 6
        for s in syz:
            assert apply_combination(s, columns, 32003, ring3.nvars) == {}

    def test_exactness_on_random_columns(self, ring2):
        rng = Rng(17)
        p = 32003
        for _ in range(20):
            cols = []
            for _ in range(3):
                f = ring2.random_form(1 + rng.below(2), rng)
                while f.is_zero():
                    f = ring2.random_form(1, rng)
                cols.append(poly_to_vec(f))
            syz = tracked_syzygies(cols, p, (0,), ring2.nvars)
            assert syz, "three forms in two variables always have relations"
            for s in syz:
                assert apply_combination(s, cols, p, ring2.nvars) == {}

    def test_zero_column_gets_unit_syzygy(self, ring3):
        cols = [poly_to_vec(ring3.variable(0)), {}]
        syz = tracked_syzygies(cols, 32003, (0,), ring3.nvars)
        assert {term(1, (0, 0, 0, 0)): 1} in syz

    def test_rank_two_syzygies(self, ring3):
        # columns of the map with matrix rows (z0, z1) and (z2, z3):
        # relations of [(z0, z2), (z1, z3)] in R^2
        c0 = {term(0, (1, 0, 0, 0)): 1, term(1, (0, 0, 1, 0)): 1}
        c1 = {term(0, (0, 1, 0, 0)): 1, term(1, (0, 0, 0, 1)): 1}
        syz = tracked_syzygies([c0, c1], 32003, (0, 0), ring3.nvars)
        for s in syz:
            assert apply_combination(s, [c0, c1], 32003, ring3.nvars) == {}


class TestTrackedValues:
    def test_emitted_values_follow_reductions(self, ring3):
        # intersection-style run: values are the polynomials themselves,
        # so every emitted value must equal the combination it claims to be
        p = 32003
        polys = [ring3.parse("z0*z1-z2*z3"), ring3.parse("z0^2"), ring3.parse("z1^2-z0*z2")]
        gb = ModuleGB(p, (0,), track=True, use_chain=True)
        cols = [poly_to_vec(f) for f in polys]
        for c in cols:
            gb.add(dict(c), dict(c))
        gb.complete()
        for val in gb.emitted:
            # the tracked value lives in the ideal of the inputs
            if val:
                f = vec_to_poly(ring3, val)
                assert oracles.in_ideal(f, polys, ring3.nvars, p)

    def test_blocks_suppress_internal_pairs(self, ring3):
        p = 32003
        f = poly_to_vec(ring3.parse("z0"))
        g = poly_to_vec(ring3.parse("z1"))
        gb = ModuleGB(p, (0,), track=True, use_chain=True)
        gb.add(dict(f), {}, block=0)
        gb.add(dict(g), {}, block=0)
        gb.complete()
        # a single block is already a basis: nothing may be emitted
        assert not [v for v in gb.emitted if v]


class TestMinimalGeneratingSubset:
    def test_drops_combinations(self, ring3):
        p = 32003
        vecs = [
            poly_to_vec(ring3.parse("z0")),
            poly_to_vec(ring3.parse("z1")),
            poly_to_vec(ring3.parse("z0+z1")),
            poly_to_vec(ring3.parse("z0*z1")),
        ]
        keep = minimal_generating_subset(vecs, p, (0,))
        assert keep == [0, 1]

    def test_keeps_independent(self, ring3):
        p = 32003
        vecs = [poly_to_vec(ring3.parse("z0^2")), poly_to_vec(ring3.parse("z1^2"))]
        assert minimal_generating_subset(vecs, p, (0,)) == [0, 1]

    def test_degreewise_order(self, ring3):
        p = 32003
        # the quadric is kept because the cubics cannot generate it
        vecs = [
            poly_to_vec(ring3.parse("z0^3")),
            poly_to_vec(ring3.parse("z0^2")),
        ]
        assert minimal_generating_subset(vecs, p, (0,)) == [1]
