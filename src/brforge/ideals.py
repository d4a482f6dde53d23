"""Homogeneous ideals: Groebner bases, membership, quotient, intersection,
saturation, and extraction of the top-dimensional part.

Every numerical invariant of an ideal, its dimension included, comes from
one Hilbert report, computed once per ideal from the lead keys of its
reduced basis and cached on it (Ideal.hilbert).

Quotients and intersections run as value-tracked syzygy passes on seeded
modules instead of elimination: the seeds are Groebner bases whose internal
pairs provably emit nothing, so only cross pairs are reduced.  Saturations,
by a linear form or by a variable, take one basis with the form moved last.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .engine import (
    InvariantError,
    ModuleGB,
    Vec,
    incremental_basis,
    regular_sequence_basis,
    tracked_intersection,
)
from .hilbert import HilbertReport, hilbert_report
from .poly import Polynomial, PolyRing
from .protocol import note, recording
from .ring import Rng

__all__ = [
    "ConstructionError",
    "InvariantError",
    "Ideal",
    "ideal_quotient",
    "ideal_intersection",
    "saturation",
    "linear_saturation",
    "affine_dimension",
    "regular_sequence",
    "draw_regular_sequence",
    "top_dimensional_part",
]


class ConstructionError(RuntimeError):
    """A randomized construction failed to reach the expected state."""


def poly_to_vec(f: Polynomial, comp: int = 0) -> Vec:
    """f placed in component comp of a free module."""
    return {k - comp: c for k, c in f.terms}


def vec_to_poly(ring: PolyRing, vec: Vec) -> Polynomial:
    """The polynomial of a component-0 vector."""
    return Polynomial(ring, tuple(sorted(vec.items(), reverse=True)))


class Ideal:
    """Homogeneous ideal given by generators; zero generators are dropped."""

    __slots__ = ("ring", "gens", "_gb", "_gb_engine", "_report")

    def __init__(self, ring: PolyRing, gens: Iterable[Polynomial]):
        kept = []
        for g in gens:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
            if g.is_zero():
                continue
            if not g.is_homogeneous()[0]:
                raise ValueError(f"inhomogeneous generator: {g}")
            kept.append(g)
        self.ring = ring
        self.gens = tuple(kept)
        self._gb: Optional[tuple[Polynomial, ...]] = None
        self._gb_engine: Optional[ModuleGB] = None
        self._report: Optional[HilbertReport] = None

    def is_zero(self) -> bool:
        return not self.gens

    def groebner(self) -> tuple[Polynomial, ...]:
        """The reduced Groebner basis, monic, ascending by leading monomial."""
        if self._gb is None:
            self._gb = tuple(
                vec_to_poly(self.ring, v) for v in self._engine().reduced_basis()
            )
        return self._gb

    def _engine(self) -> ModuleGB:
        """A completed rank-one basis engine for membership queries, grown
        over the generators by incremental_basis."""
        if self._gb_engine is None:
            self._gb_engine = _grow(self.ring, [poly_to_vec(g) for g in self.gens])[1]
        return self._gb_engine

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.is_zero() or self.is_zero():
            return f
        return vec_to_poly(self.ring, self._engine().normal_form(poly_to_vec(f)))

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(self.contains(g) for g in other.gens)

    def equals(self, other: "Ideal") -> bool:
        if other.ring != self.ring:
            return False
        return self.groebner() == other.groebner()

    def hilbert(self) -> HilbertReport:
        """The Hilbert report of R/I, computed once."""
        if self._report is None:
            self._report = hilbert_report(self)
        return self._report

    def codimension(self) -> int:
        return self.hilbert().codimension

    def minimal_generators(self) -> tuple[Polynomial, ...]:
        """The canonical minimal generators: the members of the reduced
        Groebner basis, in ascending order, that incremental_basis keeps.
        They are monic and depend on the ideal alone, not on the generators
        it was given by.

        Pruned in (degree, index) order, any generating set keeps
        dim (I/mI)_d members of degree d, m the irrelevant ideal (graded
        Nakayama: those kept below d generate I below d, hence (mI)_d, and
        those kept in d extend a basis of (mI)_d to one of I_d).  The ideal
        is generated in degrees up to its generators' top, and the basis
        members up to a degree generate I up to it, so only those members
        are pruned: none above the top is minimal.
        """
        top = max((g.degree() for g in self.gens), default=-1)
        gb = tuple(g for g in self.groebner() if g.degree() <= top)
        keep, _ = incremental_basis([poly_to_vec(g) for g in gb], self.ring.p, (0,))
        return tuple(gb[i] for i in keep)

    def __repr__(self) -> str:
        return f"Ideal({len(self.gens)} gens over {self.ring!r})"


def _grow(ring: PolyRing, vecs: Sequence[Vec]) -> tuple[list[int], ModuleGB]:
    """incremental_basis over vectors of component 0, completed: the kept
    indices and the basis of the ideal they generate."""
    kept, gb = incremental_basis(vecs, ring.p, (0,))
    gb.complete()
    return kept, gb


def _pruned(ring: PolyRing, vecs: Sequence[Vec]) -> Ideal:
    """The ideal the vectors generate, on the ones incremental_basis keeps,
    with the basis grown while pruning them as its own."""
    kept, gb = _grow(ring, vecs)
    out = Ideal(ring, [vec_to_poly(ring, vecs[i]) for i in kept])
    out._gb_engine = gb
    return out


def _essential_targets(I: Ideal, targets: Sequence[Polynomial]) -> list[Polynomial]:
    """The targets not in I plus the targets before them, in (degree, index)
    order, returned in their original order.  Dropping the others keeps the
    quotient, since I : (A + (k)) = I : A whenever k lies in I + A.

    They are the ones incremental_basis keeps on a basis seeded with I's
    reduced basis."""
    kept, _ = incremental_basis(
        [poly_to_vec(f) for f in targets],
        I.ring.p,
        (0,),
        seed=[poly_to_vec(f) for f in I.groebner()],
    )
    return [targets[i] for i in sorted(kept)]


def _seeded_quotient(I: Ideal, targets: Sequence[Polynomial]) -> Ideal:
    """(I : (targets)) via one tracked pass on the essential targets: the
    module generated by I x R^m together with the single column (targets),
    tracking the scalar cofactor of that column.  Zero reductions emit
    elements of the quotient, and together they generate it; the unit ideal
    needs no pass.  The pass is tracked, so even a single target runs no
    product criterion (see ModuleGB).  The result is presented canonically
    (Ideal.minimal_generators), so it does not depend on the pass; the
    basis grown while pruning the candidates becomes the result's basis."""
    ring = I.ring
    p = ring.p
    targets = _essential_targets(I, targets)
    if not targets:
        return Ideal(ring, [ring.one])
    m = len(targets)
    maxdeg = max(g.degree() for g in targets)
    twists = tuple(maxdeg - g.degree() for g in targets)
    gb = ModuleGB(p, twists, track=True)
    for f in I.groebner():
        for comp in range(m):
            gb.add(poly_to_vec(f, comp), {}, block=comp)
    target_vec = {}
    for comp, g in enumerate(targets):
        target_vec.update(poly_to_vec(g, comp))
    gb.add(target_vec, {0: 1})  # tracks the scalar cofactor 1 of the targets
    gb.complete()
    note(f"quotient pass emitted {len(gb.emitted)} candidates")
    return _canonical(_pruned(ring, gb.emitted))


def _canonical(Q: Ideal) -> Ideal:
    """Q on its canonical minimal generators, carrying Q's basis."""
    out = Ideal(Q.ring, Q.minimal_generators())
    out._gb, out._gb_engine = Q._gb, Q._gb_engine
    return out


def ideal_quotient(I: Ideal, J: Ideal) -> Ideal:
    """The ideal (I : J) = {h : h*J inside I}."""
    if J.ring != I.ring:
        raise ValueError("mixed rings")
    if J.is_zero():
        return Ideal(I.ring, [I.ring.one])
    if I.is_zero():
        return Ideal(I.ring, [])
    return _seeded_quotient(I, J.gens)


def ideal_intersection(I: Ideal, J: Ideal) -> Ideal:
    """Elements lying in both ideals, from a tracked intersection pass
    seeded with both reduced bases, pruned by incremental_basis, whose
    basis becomes the result's."""
    if I.ring != J.ring:
        raise ValueError("mixed rings")
    ring = I.ring
    if I.is_zero() or J.is_zero():
        return Ideal(ring, [])
    vals = tracked_intersection(
        [poly_to_vec(f) for f in I.groebner()],
        [poly_to_vec(g) for g in J.groebner()],
        ring.p,
        (0,),
    )
    note(f"intersection pass emitted {len(vals)} candidates")
    return _pruned(ring, vals)


def saturation(I: Ideal) -> Ideal:
    """Saturation with respect to the irrelevant maximal ideal.

    An element lands in the saturation exactly when every variable kills it
    into I at some power, so the result is the intersection over variables v
    of I : v^infinity (_saturate).  Chaining them instead would saturate by
    the product of the variables, which also strips components supported on
    coordinate hyperplanes.
    """
    if I.is_zero():
        return I
    result = None
    for v in I.ring.variables():
        with recording(None):
            current, steps = _saturate(I, v)
            result = current if result is None else ideal_intersection(result, current)
        if steps:
            note(f"saturation by {v} stabilized after {steps} quotients")
    note(f"saturation: {len(result.gens)} generators")
    return result


def linear_saturation(I: Ideal, h: Polynomial) -> Ideal:
    """I : h^infinity for a linear form h; the unit ideal for h = 0."""
    return _saturate(I, h)[0]


def _saturate(I: Ideal, h: Polynomial) -> tuple[Ideal, int]:
    """I : h^infinity, and the number k of quotients by h after which
    I : h^k stops growing.

    Exchanging h's last variable z_j with z_n and substituting z_n ->
    (z_n - (h' - c*z_n)) / c, c the z_n coefficient of the exchanged h',
    moves h to z_n.  In degrevlex a form is divisible by z_n^e exactly when
    its lead is, so (Bayer and Stillman, "A criterion for detecting
    m-regularity", Invent. Math. 87, 1987) the reduced basis of the moved
    ideal K, each member g divided by z_n^min(e_g, s), is a basis of
    K : z_n^s.  No lead of a reduced basis divides another, so k is the
    largest e_g.  The divided members, moved back, join I's reduced basis
    in incremental_basis (the others map back into I), and the result is
    presented canonically."""
    ring = I.ring
    if h.is_homogeneous() not in ((True, 1), (True, None)):
        raise ValueError(f"not a linear form: {h}")
    if h.is_zero():
        return Ideal(ring, [ring.one]), 0
    var, c = h.terms[-1]  # degrevlex puts h's last variable last
    swapped = h.swap_last(var)
    zn = ring.variables()[-1].terms[0][0]
    inv = pow(c, -1, ring.p)
    moved = ring.from_terms({k: inv if k == zn else -a * inv for k, a in swapped.terms})
    K = Ideal(ring, [g.swap_last(var).substitute_last(moved) for g in I.gens])
    new, k = [], 0
    for f in K.groebner():
        g = f.divide_out_last()
        if g.degree() < f.degree():
            k = max(k, f.degree() - g.degree())
            new.append(poly_to_vec(g.substitute_last(swapped).swap_last(var)))
    kept, gb = incremental_basis(new, ring.p, (0,), seed=[poly_to_vec(f) for f in I.groebner()])
    gb.complete()
    Q = Ideal(ring, I.gens + tuple(vec_to_poly(ring, new[i]) for i in kept))
    Q._gb_engine = gb
    return _canonical(Q), k


def affine_dimension(I: Ideal) -> int:
    """Krull dimension of R/I (the affine cone; projective dim is one less),
    read off the ideal's Hilbert series: nvars minus the order of its pole
    at t = 1; -1 for the unit ideal."""
    return I.hilbert().affine_dimension


def regular_sequence(ring: PolyRing, forms: Sequence[Polynomial]) -> Optional[Ideal]:
    """The ideal of the forms when they are a regular sequence, else None.

    Its basis is built against the Hilbert function of a complete
    intersection of the forms' degrees (engine.regular_sequence_basis), so
    the pairs of a degree are dropped unreduced once the target is met.  The
    returned ideal carries that basis."""
    if any(f.is_zero() for f in forms):
        return None
    gb = regular_sequence_basis([poly_to_vec(f) for f in forms], ring.p, ring.nvars)
    if gb is None:
        return None
    out = Ideal(ring, forms)
    out._gb_engine = gb
    return out


def draw_regular_sequence(
    I: Ideal, degrees: Sequence[int], rng: Rng, attempts: int
) -> Optional[tuple[Ideal, int]]:
    """A regular sequence of forms of the given degrees inside I, drawn up
    to `attempts` times: (its ideal, the number of the attempt that drew
    it), or None when every attempt fails.

    A form of degree d is the sum over I's generators g, in order, of
    sparse_form(d - deg g) * g; a generator above d contributes zero and
    draws nothing."""
    ring = I.ring
    for attempt in range(1, attempts + 1):
        forms = []
        for d in degrees:
            f = ring.zero
            for g in I.gens:
                f = f + ring.sparse_form(d - g.degree(), rng) * g
            forms.append(f)
        J = regular_sequence(ring, forms)
        if J is not None:
            return J, attempt
    return None


def top_dimensional_part(I: Ideal, r: int, rng: Rng) -> Ideal:
    """The intersection of the codimension-r primary components.

    Draws r forms inside I that are a regular sequence (so they cut
    codimension r), and returns the double quotient (J : (J : I)).  Tries
    five draws per degree, then raises the form degree, twice at most.
    """
    if I.is_zero():
        raise ValueError("top part of the zero ideal")
    if I.codimension() != r:
        raise ConstructionError(f"expected codimension {r}, found {I.codimension()}")
    dmax = max(g.degree() for g in I.gens)
    for degree in range(dmax, dmax + 3):
        drawn = draw_regular_sequence(I, [degree] * r, rng, 5)
        if drawn is None:
            note(f"top part: all draws at degree {degree} degenerate, raising degree")
            continue
        J, attempt = drawn
        note(f"top part: cut with {r} forms of degree {degree} (attempt {attempt})")
        with recording(None):
            link = ideal_quotient(J, I)
            return ideal_quotient(J, link)
    raise ConstructionError(
        f"no regular sequence of length {r} found in the ideal after escalation"
    )
