"""Heap-driven Buchberger engine on dict-backed module vectors.

A vector in a free module R^m is a dict {term: coeff} with coefficients
canonical in [1, p).  A term is one int (see ring):

    term = (key(e) << shift) + unit_comp,   key(e) = R * (deg(e) * B**(MAX_N + 1) - sum_i e_i * B**i)

with a per-component offset unit_comp, the term of e_comp.  Shift 0 and
unit_comp = -comp give term over position degrevlex with the lower
component winning ties; a Schreyer frame (see ring) gives the order that
the columns e_comp maps to induce.  Either way shifting a term by a
monomial adds key(m) << shift.  Exponents and degrees stay at most
ring.MAX_DEGREE and components below ring.MAX_RANK.

The same representation doubles as the tracking space for cofactor /
syzygy bookkeeping, so one reducer serves Groebner bases, normal forms,
syzygy generation, and the value-tracked intersection and quotient
constructions.

A basis element stores its lead term, with coefficient 1, apart from its
tail, the terms below the lead; basis() and reduced_basis() put them back
together.  Two invariants keep the one reducer (_reduce) cheap:

- Coefficients are canonical in [1, p) at rest: in every tail and tracked
  value, every remainder, emitted relation and returned basis.  Only inside
  _reduce, and in the S-vector and value handed to it, do they accumulate
  unreduced products f * c with f = p - coeff; a term is taken mod p when
  it is popped as the leading term, and the tracked value once at the end,
  entries that are 0 mod p dropped.  So the same terms are reduced by the
  same reducers as with every operation taken mod p.
- The reducer of a term is the first element of its component, in append
  order, whose lead divides it, and each basis memoizes that lookup (term
  -> element).  Elements are only ever appended, so an element appended
  later comes after the cached one, and a first divisor stays first.  A
  miss is not cached, since a later element may divide the term.

All inputs are assumed homogeneous, which makes pair selection by degree the
normal strategy and makes degree-truncated runs sound.  The engine does not
check it; ideals.Ideal and resolution.GradedMatrix raise ValueError on an
inhomogeneous generator or entry.

Syzygies come from stage passes (_stage_pass), the stepwise Schreyer
scheme.  A generator pass takes the columns of a map in term over position,
and each column tracks its own unit in the Schreyer frame its lead induces
(see ring), so every S-pair that reduces to zero emits a relation among the
columns, already in that frame; together these raw relations generate the
syzygy module (Schreyer's theorem).  A pruning pass takes the raw relations
of the pass before as its candidates, in that frame: it keeps those not in
the span of the ones kept so far, which prunes them to a minimal generating
set, and emits the relations among the kept ones, framed for the next pass.
stage_passes is the one loop that runs the passes: a resolution
(resolution.free_resolution) runs its pruning passes until one emits
nothing, and a kernel (tracked_syzygies) is its first stage, a generator
pass and one pruning pass, which is not completed: a kernel needs no
second syzygies.

Most raw relations are redundant, and a dimension count drops them without
a reduction (Traverso's Hilbert-driven idea, on the pruning step of the
stepwise Schreyer resolution).  Let F be the free module of the pass's
columns and M their image, the module whose basis the pass before
completed.  Every candidate lies in the syzygy module S = ker(F -> M), and
F / S is isomorphic to M, so dim S_d = dim F_d - dim M_d.  Let N be the
span of the candidates kept so far.  Once the pass's basis is complete
through degree d it is a Groebner basis of N there, so dim F_d - dim N_d
is the count of standard terms of degree d its lead terms leave.  The room
in degree d, that count minus dim M_d, is therefore dim S_d - dim N_d.
When it is zero, N_d = S_d and every candidate left in degree d lies in N:
its normal form would be zero, so dropping it unreduced keeps the same
columns and the same basis.  A kept candidate's normal form leads with a
term of degree d that no lead divides, so it lowers the count by exactly
one and opens no pair of degree d.  The count is taken once per degree
from the Hilbert numerators of the lead monomials in each component, and
dim M_d from those of the basis before, each component shifted by its
degree; the candidates generate S, so the room is zero again after the
last candidate of each degree.  A negative room, or room left after that,
is a broken invariant (InvariantError).

The same count decides whether r forms f_1..f_r of positive degrees d_i
are a regular sequence (regular_sequence_basis), with the Hilbert function
of a complete intersection, the coefficients of
prod (1 - t^{d_i}) / (1 - t)^nvars, in place of dim M_d (Traverso's
original setting, "Hilbert functions and the Buchberger algorithm", J.
Symbolic Comput. 22, 1996).  Let J be the ideal of the forms.  Every basis
element lies in J, so the count of standard terms of degree d is at least
dim (R/J)_d.  For r <= nvars, r generic forms of these degrees are a
regular sequence, and dim J_d is the rank of a linear map whose entries
are polynomial in the forms' coefficients, which can only drop when they
specialize; by that semicontinuity dim (R/J)_d is at least the complete
intersection's value in every degree, so the room is never negative
(negative room is a broken invariant).  The two are equal in every degree
exactly when the forms are a regular sequence, that is, when R/J has the
complete intersection's Hilbert series.  Once the room in degree d is zero
the lead terms span the initial ideal of J in degree d, so every pair left
in d would reduce to zero and is dropped unreduced.  Room left after the
last pair of degree d proves that the forms are not a regular sequence:
the forms of degree at most d have joined the basis by then and every pair
through degree d has been popped, so the basis is complete through d, the
count equals dim (R/J)_d, and that exceeds the target.  Only degrees with
a form or a pair are counted, so the finished basis's series is compared
with the target once at the end.

Pair criteria.  A pair (i, j) of one component may be skipped when its
S-vector has a representation below L = lcm(i, j): a combination of
monomial multiples of basis elements whose leads all lie below L.  When
every pair of degree at most d has one, the basis is a Groebner basis
through degree d (Buchberger's criterion in its lcm-representation form).
A reduced pair has one, since every reducer's multiple leads with a term
below L and a nonzero remainder joins the basis; coprime leads have one
(the product criterion); and a pair inside one seeded block has one, the
block being a Groebner basis of its span.  The chain criterion (Buchberger's
second criterion, as Gebauer and Moeller state it, "On an installation of
Buchberger's algorithm", J. Symbolic Comput. 6, 1988) uses the identity
S(i, j) = (L / L_ik) S(i, k) - (L / L_jk) S(j, k), for an element k whose
lead divides L, with L_ik, L_jk the sub-pairs' lcms: a representation of
each sub-pair below its own lcm gives one of S(i, j) below L.  Pairs pop
in ascending (degree, i, j) order, and by induction on that order every
popped pair, and every pair inside a seeded block, has a representation
below its lcm.  So (i, j) is dropped when, for some such k, each sub-pair
either has an lcm that is a proper divisor of L, so that it lies in lower
degree and has been popped (or lies inside a block), or, in an untracked
basis, has the lcm L itself and has been popped already or lies inside one
seeded block (the treated-pair rule).  A sub-pair of lcm L has the degree
of (i, j), so the record of popped pairs holds one degree at a time.  The
treated-pair rule stays off in tracked bases.  It would be sound there
too, but it changes which S-pairs reduce to zero, and so which relations a
pass emits and in what order: the raw relations of a generator pass are
the candidates its pruning pass keeps in order, and a kernel section is
drawn from the kept generators, so seeded output would change.  In an
untracked basis a zero reduction produces nothing, and the reduced basis,
normal forms through completed degrees and kept indices depend on the
ideal alone.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import zip_longest
from typing import Callable, Iterator, Optional, Sequence

from .hilbert import complete_intersection_numerator, hilbert_function_values, hilbert_numerator
from .protocol import note
from .ring import (
    COMP_BITS,
    MAX_DEGREE,
    MAX_RANK,
    divisor_masks,
    frame_unit,
    key_component,
    key_degree,
    key_divides,
    key_lcm,
)

__all__ = [
    "InvariantError",
    "Vec",
    "vec_degree",
    "ModuleGB",
    "incremental_basis",
    "minimal_generating_subset",
    "regular_sequence_basis",
    "stage_passes",
    "tracked_intersection",
    "tracked_syzygies",
]

Vec = dict  # {term: coeff}


class InvariantError(RuntimeError):
    """An internal invariant broke: a fault of the program, not of its input
    or of a random draw."""


def vec_degree(vec: Vec, twists: Sequence[int], shift: int = 0) -> int:
    """Degree of a nonzero homogeneous vector with terms at `shift`
    (twists = component degrees minus the degrees their terms read)."""
    t = next(iter(vec))
    return key_degree(t, shift) + twists[key_component(t)]


class _Elt:
    """A basis element: its lead term, whose coefficient is 1, and its tail,
    the terms below the lead."""

    __slots__ = ("lead", "tail", "track", "comp", "index")

    def __init__(self, lead: int, tail: Vec, track: Optional[Vec], index: int):
        self.lead = lead
        self.tail = tail
        self.track = track
        self.comp = key_component(lead)
        self.index = index


class ModuleGB:
    """Incremental module Groebner basis with optional combination tracking.

    twists: ambient component degrees, used only to order the pair queue by
    true S-vector degree (inputs homogeneous): the degree of e_comp minus the
    degree its term reads, so in a Schreyer frame the twist of the innermost
    component, all zero below an ideal.

    shift: the shift of the ambient terms (0 for term over position); the
    engine never needs the units themselves.  value_shift: the shift of the
    tracked values, so that a monomial multiplier key(m) << shift of a
    vector becomes key(m) << value_shift on its value.

    track=True keeps, for every basis element, a vector in a caller-chosen
    value space such that elt = (linear combination recorded in track) of the
    originally added columns' values.  Every S-pair that reduces to zero
    emits its tracked value.  With values = unit vectors this yields module
    syzygies; with values = the input polynomials themselves it yields
    intersection elements; with a single tracked seed it yields quotient
    cofactors.

    block >= 0 marks a family of added columns already known to be a
    Groebner basis among themselves whose internal pair reductions emit only
    zero values; pairs inside one block are skipped.

    The chain criterion always runs (see the module docstring): in a
    tracked basis with strictly smaller sub-lcms only, in an untracked one
    with the treated-pair rule as well; a chain-dropped pair's syzygy is a
    monomial combination of the two sub-pairs' syzygies, so a tracked pass
    still emits a generating set.  The product criterion (use_product) runs
    in untracked rank-one bases in term over position only.  Coprime leads
    make an S-pair reduce to zero for polynomials alone, not for vectors of
    a higher rank, and the lcm of two term-over-position leads of component
    0 is their sum exactly when they are coprime.  A tracked basis would
    lose the pair's Koszul syzygy, so it reduces the pair instead.
    """

    def __init__(
        self,
        p: int,
        twists: Sequence[int],
        *,
        track: bool = False,
        shift: int = 0,
        value_shift: int = 0,
    ):
        self.twists = tuple(twists)
        if len(self.twists) > MAX_RANK:
            raise ValueError(f"rank above {MAX_RANK}")
        self.p = p
        self.track = track
        self.shift = shift
        self._lift = value_shift - shift
        self._guard, self._mask = divisor_masks(shift)
        self.elts: list[_Elt] = []
        self.by_comp: dict[int, list[_Elt]] = {}
        self._reducers: dict[int, _Elt] = {}  # term -> its first divisor
        self.pairs: list[tuple[int, int, int]] = []
        self.block: list[int] = []
        self.emitted: list[Vec] = []
        self.use_product = not track and len(self.twists) == 1 and not shift
        # untracked: the pairs popped in the degree last popped (see _covered)
        self._treated: Optional[set[tuple[int, int]]] = None if track else set()
        self._treated_degree = -1

    # ---- construction -------------------------------------------------

    def add(self, vec: Vec, value: Optional[Vec] = None, block: int = -1) -> None:
        """Add a nonzero column (monic-scaled internally) and queue its pairs."""
        if not vec:
            raise ValueError("cannot add the zero vector")
        if self.track and value is None:
            value = {}
        self._append(max(vec), vec, value, block)

    def add_remainder(self, vec: Vec, value: Optional[Vec] = None) -> bool:
        """Reduce vec (destructively), carrying value along, and add the
        remainder when it is nonzero; True when it was added.  In tracked
        mode the remainder's value stays value minus the combinations its
        reducers carry, so every added column is still accounted for."""
        rem, value = self._reduce(vec, value)
        if not rem:
            return False
        self.add(rem, value)
        return True

    def _append(self, lead: int, vec: Vec, track: Optional[Vec], block: int) -> None:
        """Append vec, scaled to lead with coefficient 1, and queue its pairs."""
        p = self.p
        lc = vec[lead]
        if lc == 1:
            tail = {t: c for t, c in vec.items() if t != lead}
        else:
            inv = pow(lc, -1, p)
            tail = {t: c * inv % p for t, c in vec.items() if t != lead}
            if track:
                track = {t: c * inv % p for t, c in track.items()}
        m = len(self.elts)
        elt = _Elt(lead, tail, track, m)
        shift = self.shift
        self.elts.append(elt)
        self.block.append(block)
        for i, other in enumerate(self.elts[:m]):
            if other.comp != elt.comp:
                continue
            if block >= 0 and self.block[i] == block:
                continue
            d = key_degree(key_lcm(other.lead, lead, shift), shift)
            if d > MAX_DEGREE:
                raise ValueError(f"S-pair degree exceeds {MAX_DEGREE}")
            heappush(self.pairs, (d + self.twists[elt.comp], i, m))
        self.by_comp.setdefault(elt.comp, []).append(elt)

    # ---- reduction ----------------------------------------------------

    def _find_reducer(self, t: int) -> Optional[_Elt]:
        """The first element, in by_comp order, whose lead divides t; a hit
        is memoized (see the module docstring)."""
        g = self._reducers.get(t)
        if g is not None:
            return g
        guard = self._guard
        mask = self._mask
        for g in self.by_comp.get(key_component(t), ()):
            if (g.lead - t + guard) & mask == guard:
                self._reducers[t] = g
                return g
        return None

    def _reduce(self, vec: Vec, value: Optional[Vec]):
        """Full normal form of vec (destructive); value carried along.

        vec and value may hold any ints: products accumulate unreduced, and
        a term is taken mod p when it is popped, the value at the end."""
        p = self.p
        lift = self._lift
        reducers = self._reducers
        find = self._find_reducer
        # a min-heap of negated terms pops the largest term first; every
        # term of vec is on it exactly once, since a reducer only adds
        # terms below the one popped
        heap = [-t for t in vec]
        heapify(heap)
        out: Vec = {}
        while heap:
            t = -heappop(heap)
            coeff = vec.pop(t) % p
            if not coeff:
                continue
            red = reducers.get(t) or find(t)
            if red is None:
                out[t] = coeff
                continue
            # vec -= coeff * x^shift * red; the lead cancels, so walk the tail
            f = p - coeff
            shift = t - red.lead
            for rt, rc in red.tail.items():
                u = rt + shift
                old = vec.get(u)
                if old is None:
                    vec[u] = f * rc
                    heappush(heap, -u)
                else:
                    vec[u] = old + f * rc
            # the tracked combination loses the same multiple of red's
            if value is not None and red.track:
                _add_multiple(value, f, shift << lift, red.track)
        if value:
            value = {u: r for u, c in value.items() if (r := c % p)}
        return out, value

    def normal_form(self, vec: Vec) -> Vec:
        """Normal form of a vector against the current basis (non-destructive)."""
        out, _ = self._reduce(dict(vec), None)
        return out

    # ---- pair processing ----------------------------------------------

    def _step(self) -> None:
        d, i, j = heappop(self.pairs)
        gi = self.elts[i]
        gj = self.elts[j]
        shift = self.shift
        lcm = key_lcm(gi.lead, gj.lead, shift)
        treated = self._treated
        if treated is not None:
            if d != self._treated_degree:
                # a sub-pair of the same lcm has the same degree
                treated.clear()
                self._treated_degree = d
            treated.add((i, j))
        # rank one: coprime leads are those whose lcm is their product
        if self.use_product and lcm == gi.lead + gj.lead:
            return
        guard = self._guard
        mask = self._mask
        for gk in self.by_comp.get(gi.comp, ()):
            if gk is gi or gk is gj:
                continue
            if (
                (gk.lead - lcm + guard) & mask == guard
                and self._covered(gi, gk, lcm)
                and self._covered(gj, gk, lcm)
            ):
                return
        # the S-vector x^sj * gj - x^si * gi: the monic leads cancel
        p = self.p
        si = lcm - gi.lead
        sj = lcm - gj.lead
        svec: Vec = {}
        _add_multiple(svec, p - 1, si, gi.tail)
        _add_multiple(svec, 1, sj, gj.tail)
        svalue: Optional[Vec] = None
        if self.track:
            lift = self._lift
            svalue = {}
            _add_multiple(svalue, p - 1, si << lift, gi.track)
            _add_multiple(svalue, 1, sj << lift, gj.track)
        rem, remval = self._reduce(svec, svalue)
        if not rem:
            if self.track and remval:
                self.emitted.append(remval)
            return
        # rem comes out in descending order, lead first
        self._append(next(iter(rem)), rem, remval, -1)

    def _covered(self, g: _Elt, gk: _Elt, lcm: int) -> bool:
        """Whether the sub-pair (g, gk) of a pair with this lcm, which gk's
        lead divides, has a representation below its own lcm (see the
        module docstring): its lcm is a proper divisor of lcm, or, in an
        untracked basis, it has been popped or lies inside one seeded
        block."""
        if key_lcm(g.lead, gk.lead, self.shift) != lcm:
            return True
        if self._treated is None:
            return False
        a, b = sorted((g.index, gk.index))
        return (a, b) in self._treated or self.block[a] == self.block[b] >= 0

    def complete_to(self, degree: int) -> None:
        """Process every queued pair of S-degree <= degree."""
        while self.pairs and self.pairs[0][0] <= degree:
            self._step()

    def complete(self) -> None:
        while self.pairs:
            self._step()

    # ---- extraction ----------------------------------------------------

    def basis(self) -> list[Vec]:
        return [{g.lead: 1, **g.tail} for g in self.elts]

    def reduced_basis(self) -> list[Vec]:
        """Unique reduced basis: minimal lead terms, tails fully reduced,
        monic, sorted ascending in the module order.  A tail's normal form
        modulo the completed basis is unique, so every element of the
        basis may reduce it."""
        if self.pairs:
            raise ValueError("complete() the basis first")
        kept: list[_Elt] = []
        for g in sorted(self.elts, key=lambda g: g.lead):
            if not any(key_divides(h.lead, g.lead, self.shift) for h in kept):
                kept.append(g)
        return [{g.lead: 1, **self._reduce(dict(g.tail), None)[0]} for g in kept]


def _add_multiple(vec: Vec, factor: int, shift: int, src: Optional[Vec]) -> None:
    """vec += factor * x^shift * src, in place and not reduced mod p."""
    if not src:
        return
    for rt, rc in src.items():
        t = rt + shift
        vec[t] = vec.get(t, 0) + factor * rc


def incremental_basis(
    vecs: Sequence[Vec], p: int, twists: Sequence[int], seed: Sequence[Vec] = ()
) -> tuple[list[int], ModuleGB]:
    """Kept indices and basis of one incremental build over the nonzero
    vecs, taken in (degree, index) order after the seed (a Groebner basis,
    entered as block 0).  Before a vector of degree d the basis is completed
    through d; the vector is kept when its normal form is nonzero, and that
    remainder joins the basis.  Rank one runs the product criterion.  The
    basis is complete through the last degree tested; complete() it to go on.
    """
    inc = ModuleGB(p, twists)
    for v in seed:
        inc.add(dict(v), block=0)
    degrees = {i: vec_degree(v, twists) for i, v in enumerate(vecs) if v}
    kept: list[int] = []
    for i in sorted(degrees, key=lambda i: (degrees[i], i)):
        inc.complete_to(degrees[i])
        if inc.add_remainder(dict(vecs[i])):
            kept.append(i)
    return kept, inc


def minimal_generating_subset(
    vecs: Sequence[Vec], p: int, twists: Sequence[int]
) -> list[int]:
    """Indices of a minimal homogeneous generating subset of <vecs>, in
    ascending degree (the vectors incremental_basis keeps)."""
    return incremental_basis(vecs, p, twists)[0]


def tracked_intersection(
    first: Sequence[Vec], second: Sequence[Vec], p: int, twists: Sequence[int]
) -> list[Vec]:
    """Generators, not yet pruned, of (span of first) meet (span of second).

    first and second must each be a Groebner basis.  One tracked pass seeds
    them as blocks 0 and 1, tracking each first vector as its own value and
    each second vector as zero; every relation between the two blocks then
    emits its first part, which lies in both spans, and together these
    generate the intersection.  Chain criterion only: the product criterion
    would silently drop cross Koszul syzygies, whose values are honest
    intersection elements.
    """
    gb = ModuleGB(p, twists, track=True)
    for v in first:
        gb.add(dict(v), dict(v), block=0)
    for v in second:
        gb.add(dict(v), {}, block=1)
    gb.complete()
    return gb.emitted


def _quotient_numerator(
    gb: ModuleGB, frame: Sequence[int], nvars: int, leads: Sequence[int]
) -> list[int]:
    """Numerator over (1-t)^nvars of the Hilbert series of F / L, for F the
    free module of the pass's frame (its units at gb.shift, its twists
    gb.twists) and L the module the lead terms span.  Component j adds
    t^deg(e_j) times the numerator of R modulo its lead monomials, read off
    (lead - unit_j) >> shift."""
    shift = gb.shift
    monomials: list[list[int]] = [[] for _ in frame]
    for t in leads:
        j = key_component(t)
        monomials[j].append((t - frame[j]) >> shift)
    out: list[int] = []
    for unit, twist, mons in zip(frame, gb.twists, monomials):
        twist += key_degree(unit, shift)
        q = hilbert_numerator(mons, nvars)
        out.extend([0] * (twist + len(q) - len(out)))
        for i, c in enumerate(q):
            out[twist + i] += c
    return out


def _image_numerator(gb: ModuleGB, frame: Sequence[int], nvars: int) -> list[int]:
    """Numerator of the Hilbert series of the module a completed pass spans:
    that of F minus that of F / L, with L the module of the basis's leads."""
    free = _quotient_numerator(gb, frame, nvars, ())
    quotient = _quotient_numerator(gb, frame, nvars, [g.lead for g in gb.elts])
    return [a - b for a, b in zip_longest(free, quotient, fillvalue=0)]


def _standard_count(gb: ModuleGB, frame: Sequence[int], nvars: int, degree: int) -> int:
    """The count of standard terms of the given degree that the basis's
    lead terms leave in the frame's free module."""
    numerator = _quotient_numerator(gb, frame, nvars, [g.lead for g in gb.elts])
    return hilbert_function_values(numerator, nvars, degree)[degree]


def _room(
    gb: ModuleGB, frame: Sequence[int], nvars: int, degree: int, floor: Sequence[int], name: str
) -> int:
    """The room in a degree (see the module docstring): the standard count
    there minus the value there of the floor, a Hilbert numerator over
    (1-t)^nvars named in the error a negative room raises."""
    room = (
        _standard_count(gb, frame, nvars, degree)
        - hilbert_function_values(floor, nvars, degree)[degree]
    )
    if room < 0:
        raise InvariantError(f"standard terms fell below the {name} in degree {degree}")
    return room


def _stage_pass(
    p: int,
    nvars: int,
    frame: Sequence[int],
    twists: Sequence[int],
    shift: int,
    candidates: list[Optional[Vec]],
    image: Optional[list[int]],
) -> tuple[list[Vec], list[int], list[int], ModuleGB]:
    """One tracked pass over the columns of a stage: terms at `shift` with
    the units in `frame` and these twists (see ModuleGB), all nonnegative.

    Without an image every candidate is kept, in order.  With one, the
    Hilbert numerator of the module the pass before completed (the image of
    the frame's module), the candidates are pruned, taken in (degree,
    index) order.  When a new degree d starts, the basis is completed
    through d and the room in d is counted: the standard terms of degree d
    the basis leaves, minus the image's dimension in degree d.  While there
    is room a candidate is kept when its normal form is nonzero; the normal
    form joins the basis and takes one unit of room.  Once there is none,
    the candidates left in degree d are dropped unreduced.  Each candidate
    is dropped from the list once it is taken.  A kept column tracks its
    own unit vector in the frame it induces, so the relations emitted are
    already in the next stage's layout.

    Returns (kept columns, their degrees, their unit terms, the basis).
    The basis is complete through the last degree pruned; complete() it
    for the relations among the kept columns.
    """
    gb = ModuleGB(p, twists, track=True, shift=shift, value_shift=shift + COMP_BITS)
    candidate_degrees = [vec_degree(vec, twists, shift) for vec in candidates]
    order = range(len(candidates))
    if image is not None:
        order = sorted(order, key=lambda i: (candidate_degrees[i], i))
    kept: list[Vec] = []
    degrees: list[int] = []
    units: list[int] = []
    degree, room = -1, 0  # below every candidate degree
    for i in order:
        vec = candidates[i]
        candidates[i] = None
        d = candidate_degrees[i]
        unit = frame_unit(max(vec), len(units))
        if image is None:
            gb.add(vec, {unit: 1})
        else:
            if d != degree:
                if room:
                    raise InvariantError(f"syzygy candidates do not span degree {degree}")
                gb.complete_to(d)
                degree = d
                room = _room(gb, frame, nvars, d, image, "image")
            if not room or not gb.add_remainder(dict(vec), {unit: 1}):
                continue
            room -= 1
        kept.append(vec)
        degrees.append(d)
        units.append(unit)
    if room:
        raise InvariantError(f"syzygy candidates do not span degree {degree}")
    return kept, degrees, units, gb


def regular_sequence_basis(vecs: Sequence[Vec], p: int, nvars: int) -> Optional[ModuleGB]:
    """The completed basis of the ideal J that r nonzero forms generate
    (vectors of component 0), driven by the Hilbert function of a complete
    intersection of their degrees (see the module docstring), or None when
    the forms are not a regular sequence.

    Degree by degree, the forms of degree d join the basis unreduced and
    the room in d is counted against prod (1 - t^{d_i}); the pairs of
    degree d are processed while there is room, a new element taking one
    unit, and dropped unreduced once there is none.  Room left after them,
    or a finished basis whose series is not the target (degrees without a
    form or a pair are not counted), proves that J is not a complete
    intersection.  Constants and more than
    nvars forms are refused at once: a regular sequence of forms of
    positive degree has at most nvars members.  Rank one runs the product
    criterion.
    """
    degrees = [vec_degree(v, (0,)) for v in vecs]
    if len(vecs) > nvars or 0 in degrees:
        return None
    floor = complete_intersection_numerator(degrees)
    gb = ModuleGB(p, (0,))
    pairs = gb.pairs
    waiting = sorted(range(len(vecs)), key=lambda i: (degrees[i], i), reverse=True)
    while waiting or pairs:
        d = pairs[0][0] if pairs else degrees[waiting[-1]]
        if waiting:
            d = min(d, degrees[waiting[-1]])
        while waiting and degrees[waiting[-1]] == d:
            gb.add(dict(vecs[waiting.pop()]))
        room = _room(gb, (0,), nvars, d, floor, "complete intersection")
        while pairs and pairs[0][0] == d:
            if not room:
                heappop(pairs)
                continue
            size = len(gb.elts)
            gb._step()
            room -= len(gb.elts) - size
        if room:
            return None
    return gb if hilbert_numerator([g.lead for g in gb.elts], nvars) == floor else None


def _unframe(vec: Vec, shift: int, units: Sequence[int], comps: Sequence[int]) -> Vec:
    """A framed vector in term over position layout, its component j
    becoming comps[j]."""
    out: Vec = {}
    for t, c in vec.items():
        comp = key_component(t)
        out[((t - units[comp]) >> shift) - comps[comp]] = c
    return out


def stage_passes(
    columns: Sequence[Vec],
    p: int,
    twists: Sequence[int],
    nvars: int,
    on_basis: Optional[Callable[[list[Vec]], None]] = None,
) -> Iterator[list[Vec]]:
    """The stage passes of a resolution of the map with these columns (see
    the module docstring), one stage at a time: the minimal generators of
    each syzygy module, in term over position over the columns of the
    stage before, in ascending degree.  The unit syzygies of the zero
    columns come first in the first stage.  It stops at the first stage
    without relations.

    The generator pass takes the nonzero columns, with the twists shifted
    to start at 0 (a syzygy reads only differences of degrees, and the
    Hilbert counts need them nonnegative).  Each pruning pass takes the raw
    relations of the pass before; a framed column's degree reads that of
    its lead's monomial, so the pass's twist for a column is that of the
    column's lead component.  A pass is completed, for the relations of the
    next stage, only when the next stage is asked for, and freed before the
    pass after it is built.  on_basis, when given, receives the reduced
    basis the generator pass completed.
    """
    base = min(twists, default=0)
    twists = [t - base for t in twists]
    comps: Sequence[int] = [j for j, col in enumerate(columns) if col]
    syzygies: list[Vec] = [{-j: 1} for j, col in enumerate(columns) if not col]
    frame, shift = [-r for r in range(len(twists))], 0
    cols = [columns[j] for j in comps]
    cols, _, units, gb = _stage_pass(p, nvars, frame, twists, shift, cols, None)
    gb.complete()
    if on_basis is not None:
        on_basis(gb.reduced_basis())
    while True:
        raw = gb.emitted
        note(f"syzygy pass: {len(gb.elts)} basis elements, {len(syzygies) + len(raw)} raw relations")
        if raw:
            image = _image_numerator(gb, frame, nvars)
            twists = [twists[key_component(max(col))] for col in cols]
            del gb  # the pruning pass needs only the relations and their image
            frame, shift = units, shift + COMP_BITS
            cols, _, units, gb = _stage_pass(p, nvars, frame, twists, shift, raw, image)
            syzygies.extend(_unframe(vec, shift, frame, comps) for vec in cols)
        note(f"pruned to {len(syzygies)} minimal relations")
        if syzygies:
            yield syzygies
        if not raw:
            return
        syzygies, comps = [], range(len(cols))
        gb.complete()


def tracked_syzygies(
    columns: Sequence[Vec], p: int, ambient_twists: Sequence[int], nvars: int
) -> list[Vec]:
    """Minimal generators of the syzygy module of the given columns, in
    term over position over the columns: the unit syzygies of the zero
    columns first, then the rest in ascending degree.  The first stage of
    stage_passes, whose pruning pass is not completed: a kernel needs no
    second syzygies."""
    return next(stage_passes(columns, p, ambient_twists, nvars), [])
