"""Engine-level checks: Groebner completion, tracked emissions, pruning.

The tracked-mode checks recompute every emitted combination against the
original columns with plain dict arithmetic, so a bookkeeping error in the
engine cannot hide behind itself.
"""

import sys
from collections import Counter

import pytest

import brforge.ideals
from brforge.construct import ConstructionSpec, kernel_section_run
from brforge.engine import (
    ModuleGB,
    incremental_basis,
    minimal_generating_subset,
    tracked_syzygies,
    vec_degree,
)
from brforge.ideals import Ideal, poly_to_vec, vec_to_poly
from brforge.poly import PolyRing
from brforge.ring import COMP_BITS, Rng, frame_unit, monomial_key

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
        gb = ModuleGB(32003, (0,))
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
        # untracked, rank one and term over position, and nowhere else
        for track in (False, True):
            for twists in ((0,), (0, 0)):
                for shift in (0, COMP_BITS):
                    gb = ModuleGB(32003, twists, track=track, shift=shift)
                    assert gb.use_product == (not track and twists == (0,) and not shift)


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
        cols = [poly_to_vec(ring3.variables()[0]), {}]
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
        gb = ModuleGB(p, (0,), track=True)
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
        gb = ModuleGB(p, (0,), track=True)
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


class TestReducerMemo:
    """The memo maps a term to the first element, in append order per
    component, whose lead divides it; misses are never cached."""

    def test_term_without_reducer_is_found_once_a_divisor_is_appended(self):
        gb = ModuleGB(32003, (0,))
        gb.add({term(0, (1, 0, 0)): 1})
        t = term(0, (0, 2, 0))
        assert gb._find_reducer(t) is None
        assert gb.normal_form({t: 5}) == {t: 5}
        gb.add({term(0, (0, 1, 0)): 1})
        assert gb._find_reducer(t) is gb.elts[1]
        assert gb.normal_form({t: 5}) == {}

    def test_first_appended_divisor_stays_the_reducer(self):
        gb = ModuleGB(32003, (0, 0))
        gb.add({term(0, (1, 1, 0)): 1, term(0, (0, 2, 0)): 2})
        gb.add({term(0, (1, 0, 0)): 1, term(0, (0, 1, 0)): 3})
        t = term(0, (2, 1, 0))
        assert gb._find_reducer(t) is gb.elts[0]
        # later divisors of t, in its component and in another
        gb.add({term(0, (2, 0, 0)): 1})
        gb.add({term(1, (1, 0, 0)): 1})
        gb.add({term(0, (0, 0, 1)): 1})
        assert gb._find_reducer(t) is gb.elts[0]
        assert gb._find_reducer(term(0, (3, 0, 0))) is gb.elts[1]


# The differential kernel test: ModuleGB against oracles.EagerModuleGB, the
# reducer that takes every term operation mod p, on the same calls.

NVARS = 3


def _random_monomials(rng, degree, count):
    mons = oracles.monomial_exponents(NVARS, degree)
    return {mons[rng.below(len(mons))] for _ in range(count)}


def _random_vector(rng, p, frame, degree):
    """A homogeneous vector of the given degree: each frame entry is
    (degree of e_j, term of e_j as a function of the monomial's exponents)."""
    vec = {}
    for deg_j, place in frame:
        if degree < deg_j or rng.below(3) == 0:
            continue
        for exps in _random_monomials(rng, degree - deg_j, 1 + rng.below(6)):
            vec[place(exps)] = 1 + rng.below(p - 1)
    return vec


def _frames(rng, rank):
    """(shift, value_shift, frame, value unit) for term over position with
    twists 0, 1, 0 and for a Schreyer frame over random monomial leads."""
    twists = (0, 1, 0)[:rank]
    top = [(tw, lambda e, j=j: term(j, e)) for j, tw in enumerate(twists)]
    yield 0, 0, top, lambda vec, idx: {-idx: 1}
    leads = [sorted(_random_monomials(rng, 1 + rng.below(2), 1))[0] for _ in range(rank)]
    units = [frame_unit(monomial_key(e), j) for j, e in enumerate(leads)]
    framed = [
        (sum(e), lambda m, u=u: (monomial_key(m) << COMP_BITS) + u) for e, u in zip(leads, units)
    ]
    yield COMP_BITS, 2 * COMP_BITS, framed, lambda vec, idx: {frame_unit(max(vec), idx): 1}


def _in_range(vec, p):
    return all(0 < c < p for c in vec.values())


def _run_both(rng, p, rank, shift, value_shift, frame, unit, track):
    # the draws that once chose the criteria keep the stream
    if rank == 1 and shift == 0:
        rng.below(2)
    rng.below(4)
    kwargs = dict(track=track, shift=shift, value_shift=value_shift)
    twists = [0] * rank if shift else [(0, 1, 0)[j] for j in range(rank)]
    lazy = ModuleGB(p, twists, **kwargs)
    eager = oracles.EagerModuleGB(
        p, twists, use_product=lazy.use_product, use_chain=True, treated=not track, **kwargs
    )
    vecs = []
    for _ in range(4 + rng.below(4)):
        vec = _random_vector(rng, p, frame, 2 + rng.below(2))
        if vec:
            vecs.append(vec)
    vecs.sort(key=lambda v: vec_degree(v, twists, shift))
    for idx, vec in enumerate(vecs):
        value = unit(vec, idx) if track else None
        if rng.below(3) == 0:
            lazy.add(dict(vec), value and dict(value))
            eager.add(dict(vec), value and dict(value))
        else:
            d = vec_degree(vec, twists, shift)
            lazy.complete_to(d)
            eager.complete_to(d)
            added = lazy.add_remainder(dict(vec), value and dict(value))
            assert added == eager.add_remainder(dict(vec), value and dict(value))
        probe = _random_vector(rng, p, frame, 3)
        rem = lazy.normal_form(probe)
        assert rem == eager.normal_form(probe)
        assert _in_range(rem, p)
    lazy.complete()
    eager.complete()
    assert lazy.basis() == eager.basis()
    assert [g.track for g in lazy.elts] == [g.track for g in eager.elts]
    assert lazy.emitted == eager.emitted
    assert lazy.reduced_basis() == eager.reduced_basis()
    for g in lazy.elts:
        assert g.lead not in g.tail and all(t < g.lead for t in g.tail)
        assert _in_range(g.tail, p) and _in_range(g.track or {}, p)
    assert all(_in_range(v, p) and v for v in lazy.emitted)
    assert all(_in_range(v, p) for v in lazy.reduced_basis())
    return eager.recreated


@pytest.mark.parametrize("p", [3, 5, 7])
def test_lazy_reducer_matches_the_eager_one(p):
    rng = Rng(900 + p)
    recreated = 0
    for rank in (1, 2, 3):
        for shift, value_shift, frame, unit in _frames(rng, rank):
            for track in (False, True):
                for _ in range(3):
                    recreated += _run_both(rng, p, rank, shift, value_shift, frame, unit, track)
    # some term cancelled to zero mid-reduction and came back later in it
    assert recreated > 0


# The treated-pair rule of untracked bases against oracles.EagerModuleGB,
# which keeps the strict chain criterion.  The two may append different
# elements, but whatever depends on the ideal alone must agree: normal forms
# through a completed degree (so add_remainder results), kept indices and
# reduced bases.


class _PairReductions:
    """Counts the reductions of S-pairs, the ones _step makes."""

    pair_reductions = 0

    def _reduce(self, *args, **kwargs):
        if sys._getframe(1).f_code.co_name == "_step":
            self.pair_reductions += 1
        return super()._reduce(*args, **kwargs)


class _CountedLazy(_PairReductions, ModuleGB):
    pass


class _CountedEager(_PairReductions, oracles.EagerModuleGB):
    pass


def _seed_blocks(rng, p, twists, shift, frame):
    """One or two reduced bases of random vectors, to be seeded as blocks."""
    blocks = []
    for _ in range(1 + rng.below(2)):
        gb = ModuleGB(p, twists, shift=shift)
        for _ in range(2 + rng.below(3)):
            vec = _random_vector(rng, p, frame, 1 + rng.below(2))
            if vec:
                gb.add(vec)
        gb.complete()
        blocks.append(gb.reduced_basis())
    return blocks


def _untracked_run(rng, p, rank, shift, frame):
    if rank == 1 and shift == 0:
        rng.below(2)  # the draw that once chose the product criterion keeps the stream
    twists = [0] * rank if shift else [(0, 1, 0)[j] for j in range(rank)]
    kwargs = dict(shift=shift, value_shift=shift)
    lazy = _CountedLazy(p, twists, **kwargs)
    eager = _CountedEager(p, twists, use_product=lazy.use_product, use_chain=True, **kwargs)
    for b, block in enumerate(_seed_blocks(rng, p, twists, shift, frame)):
        for vec in block:
            lazy.add(dict(vec), block=b)
            eager.add(dict(vec), block=b)
    vecs = [v for v in (_random_vector(rng, p, frame, 2 + rng.below(3)) for _ in range(8)) if v]
    vecs.sort(key=lambda v: vec_degree(v, twists, shift))
    for vec in vecs:
        if rng.below(3) == 0:
            lazy.add(dict(vec))
            eager.add(dict(vec))
            continue
        d = vec_degree(vec, twists, shift)
        lazy.complete_to(d)
        eager.complete_to(d)
        assert lazy.normal_form(vec) == eager.normal_form(vec)
        assert lazy.add_remainder(dict(vec)) == eager.add_remainder(dict(vec))
    lazy.complete()
    eager.complete()
    assert lazy.reduced_basis() == eager.reduced_basis()
    for _ in range(3):
        probe = _random_vector(rng, p, frame, 3)
        assert lazy.normal_form(probe) == eager.normal_form(probe)
    return lazy.pair_reductions, eager.pair_reductions


def _eager_incremental(vecs, p, twists, seed):
    """incremental_basis on oracles.EagerModuleGB: kept indices and the
    completed reduced basis."""
    inc = oracles.EagerModuleGB(p, twists, use_product=len(twists) == 1, use_chain=True)
    for v in seed:
        inc.add(dict(v), block=0)
    degrees = {i: vec_degree(v, twists) for i, v in enumerate(vecs) if v}
    kept = []
    for i in sorted(degrees, key=lambda i: (degrees[i], i)):
        inc.complete_to(degrees[i])
        if inc.add_remainder(dict(vecs[i])):
            kept.append(i)
    inc.complete()
    return kept, inc.reduced_basis()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_treated_pair_rule_matches_the_strict_chain_criterion(p):
    rng = Rng(950 + p)
    lazy_total = eager_total = 0
    for rank in (1, 2, 3):
        for shift, _, frame, _ in _frames(rng, rank):
            for _ in range(4):
                lazy, eager = _untracked_run(rng, p, rank, shift, frame)
                lazy_total += lazy
                eager_total += eager
        twists = [(0, 1, 0)[j] for j in range(rank)]
        top = [(tw, lambda e, j=j: term(j, e)) for j, tw in enumerate(twists)]
        for _ in range(4):
            seed = _seed_blocks(rng, p, twists, 0, top)[0]
            vecs = [_random_vector(rng, p, top, 1 + rng.below(3)) for _ in range(7)]
            kept, gb = incremental_basis(vecs, p, twists, seed=seed)
            gb.complete()
            assert (kept, gb.reduced_basis()) == _eager_incremental(vecs, p, twists, seed)
    # the rule skipped reductions the strict criterion makes
    assert lazy_total < eager_total


class TestWorkCounts:
    """Reductions of one kernel section, counted by wrapping
    ModuleGB._reduce: an S-pair reduction is one that _step makes, and the
    cut's are those made inside regular_sequence_basis.  Calls of the cut
    and of the quotient passes (ideals._seeded_quotient) are counted too."""

    @staticmethod
    def _run(monkeypatch, ring, spec, rng):
        counts = Counter()
        calls = Counter()
        cutting = []
        reduce = ModuleGB._reduce

        def counted(self, vec, value):
            out = reduce(self, vec, value)
            kind = (
                "cut" if cutting else "tracked" if self.track else "untracked",
                "pair" if sys._getframe(1).f_code.co_name == "_step" else "other",
                "zero" if not out[0] else "nonzero",
            )
            counts[kind] += 1
            return out

        cut = brforge.ideals.regular_sequence_basis
        quotient = brforge.ideals._seeded_quotient

        def marked(*args):
            calls["cut"] += 1
            cutting.append(True)
            try:
                return cut(*args)
            finally:
                cutting.pop()

        def passed(*args):
            calls["quotient"] += 1
            return quotient(*args)

        monkeypatch.setattr(ModuleGB, "_reduce", counted)
        monkeypatch.setattr(brforge.ideals, "regular_sequence_basis", marked)
        monkeypatch.setattr(brforge.ideals, "_seeded_quotient", passed)
        kernel_section_run(ring, spec, rng)
        return counts, calls

    def test_flagship_reductions(self, monkeypatch):
        # test_03's spec, seed 1: the top part is one saturation by a linear
        # form, so neither the cut nor a quotient pass runs
        ring = PolyRing(32003, 6)
        counts, calls = self._run(monkeypatch, ring, ConstructionSpec(1, 5, 1, 2, 6, seed=1), Rng(1))
        assert calls["cut"] == 0
        assert calls["quotient"] == 0
        # untracked S-pair reductions, the moved ideal's basis included:
        # 171, 109 of them to zero, with the cut and the double quotient
        untracked = Counter()
        for (kind, where, result), n in counts.items():
            if kind != "tracked" and where == "pair":
                untracked[result] += n
        assert untracked["zero"] + untracked["nonzero"] <= 136
        assert untracked["zero"] <= 101
        # only the kernel's tracked pass is left (180, 23, 14 and 15 with
        # the two quotient passes)
        assert counts["tracked", "pair", "zero"] == 50
        assert counts["tracked", "pair", "nonzero"] == 5
        assert counts["tracked", "other", "zero"] == 14
        assert counts["tracked", "other", "nonzero"] == 15

    def test_cut_reductions(self, monkeypatch):
        # test_04's spec: quadratic entries, so the degeneracy locus is not
        # linear and the top part is the double quotient over a cut
        ring = PolyRing(23, 6)
        spec = ConstructionSpec(1, 3, 2, 3, 6, seed=2)
        counts, calls = self._run(monkeypatch, ring, spec, Rng(2))
        assert calls["cut"] == 1
        assert calls["quotient"] == 2
        # the cut stops each degree once its Hilbert target is met
        assert counts["cut", "pair", "nonzero"] > 0
        assert counts["cut", "pair", "zero"] == 0
