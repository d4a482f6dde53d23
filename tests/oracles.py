"""Independent cross-checks for the test suite.

Everything here recomputes invariants with dense linear algebra over GF(p),
direct combinatorics, or random-point evaluation, deliberately avoiding the
package's Groebner machinery, so agreement between the two is evidence
rather than tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations, combinations_with_replacement
from typing import Optional, Sequence

from brforge.chern import BettiTable, GenBRSpec, TwistSpec
from brforge.engine import InvariantError, ModuleGB, minimal_generating_subset, vec_degree
from brforge.ideals import (
    Ideal,
    ideal_intersection,
    ideal_quotient,
    poly_to_vec,
    regular_sequence,
    vec_to_poly,
)
from brforge.protocol import note, recording
from brforge.resolution import GradedMatrix, Resolution
from brforge.ring import (
    divisor_masks,
    key_component,
    key_degree,
    key_divides,
    key_exponents,
    key_lcm,
    monomial_key,
)


def term(comp: int, exps: Sequence[int]) -> int:
    """The engine's packed term for the monomial with these exponents in
    component comp."""
    return monomial_key(exps) - comp


def split_term(t: int, nvars: int) -> tuple[int, tuple[int, ...]]:
    """(component, exponent tuple) of a packed term."""
    return key_component(t), key_exponents(t, nvars)


def split_vec(vec: dict, nvars: int) -> dict:
    """A module vector keyed by (component, exponent tuple)."""
    return {split_term(t, nvars): c for t, c in vec.items()}


def join_vec(vec: dict) -> dict:
    """A module vector keyed by packed terms."""
    return {term(c, e): v for (c, e), v in vec.items()}


def s_vector(a: dict, b: dict, p: int, nvars: int):
    """S-vector of two monic module vectors under term over position, or
    None when their leads sit in different components.  The leads and the
    lcm are worked out on exponent tuples, apart from the engine's keys."""
    a, b = split_vec(a, nvars), split_vec(b, nvars)

    def order(k):  # term over position: degrevlex, then the lower component
        comp, e = k
        return sum(e), tuple(-x for x in reversed(e)), -comp

    ca, ea = max(a, key=order)
    cb, eb = max(b, key=order)
    if ca != cb:
        return None
    lcm = tuple(max(x, y) for x, y in zip(ea, eb))
    sa = tuple(l - x for l, x in zip(lcm, ea))
    sb = tuple(l - x for l, x in zip(lcm, eb))
    out = {}
    for (c, e), v in a.items():
        key = (c, _add_exps(e, sa))
        out[key] = (out.get(key, 0) + v) % p
    for (c, e), v in b.items():
        key = (c, _add_exps(e, sb))
        out[key] = (out.get(key, 0) - v) % p
    return join_vec({k: v for k, v in out.items() if v})


def monomial_exponents(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree (stars and bars)."""
    if degree < 0:
        return []
    out = []
    for bars in combinations(range(degree + nvars - 1), nvars - 1):
        exps = []
        prev = -1
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(degree + nvars - 2 - prev)
        out.append(tuple(exps))
    return out


def exponents_of_degree(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """The exponent tuples of the given total degree, descending in the
    ring order (the order PolyRing.random_form draws them in)."""
    return sorted(monomial_exponents(nvars, degree), key=monomial_key, reverse=True)


def _add_exps(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


class DenseSpan:
    """Row space over GF(p) in echelon form; rows are dicts index -> coeff."""

    def __init__(self, p: int):
        self.p = p
        self.rows: dict[int, dict[int, int]] = {}

    def _reduce(self, vec: dict[int, int]) -> dict[int, int]:
        p = self.p
        vec = {k: v % p for k, v in vec.items() if v % p}
        while vec:
            piv = min(vec)
            row = self.rows.get(piv)
            if row is None:
                return vec
            c = vec[piv]
            for k, v in row.items():
                nv = (vec.get(k, 0) - c * v) % p
                if nv:
                    vec[k] = nv
                else:
                    vec.pop(k, None)
        return vec

    def normal_form(self, vec: dict[int, int]) -> dict[int, int]:
        """The representative of vec modulo the span with no entry at a
        pivot index: unique, hence linear in vec.  (_reduce stops at the
        first index that is not a pivot, which only decides membership.)"""
        p = self.p
        vec = {k: v % p for k, v in vec.items() if v % p}
        out = {}
        while vec:
            piv = min(vec)
            c = vec.pop(piv)
            row = self.rows.get(piv)
            if row is None:
                out[piv] = c
                continue
            for k, v in row.items():
                if k == piv:
                    continue
                nv = (vec.get(k, 0) - c * v) % p
                if nv:
                    vec[k] = nv
                else:
                    vec.pop(k, None)
        return out

    def add(self, vec: dict[int, int]) -> bool:
        """Insert a vector; True when the rank grew."""
        rem = self._reduce(vec)
        if not rem:
            return False
        piv = min(rem)
        inv = pow(rem[piv], -1, self.p)
        self.rows[piv] = {k: v * inv % self.p for k, v in rem.items()}
        return True

    def contains(self, vec: dict[int, int]) -> bool:
        return not self._reduce(vec)

    @property
    def rank(self) -> int:
        return len(self.rows)


def _poly_dict(f) -> dict[tuple[int, ...], int]:
    return f.as_dict() if hasattr(f, "as_dict") else dict(f)


def degree_span(gens: Sequence, nvars: int, p: int, d: int) -> DenseSpan:
    """Echelon basis of the degree-d piece of the ideal generated by gens.

    I_d = sum over g of R_{d - deg g} * g, so no Groebner step is needed.
    Monomials of degree d are indexed by their position in
    monomial_exponents(nvars, d).
    """
    index = {e: i for i, e in enumerate(monomial_exponents(nvars, d))}
    span = DenseSpan(p)
    for g in gens:
        gd = _poly_dict(g)
        if not gd:
            continue
        deg = sum(next(iter(gd)))
        if deg > d:
            continue
        for m in monomial_exponents(nvars, d - deg):
            vec = {index[_add_exps(m, e)]: c for e, c in gd.items()}
            span.add(vec)
    return span


def substitute_last_dense(f, form, p: int) -> dict[tuple[int, ...], int]:
    """f with its last variable replaced by form, expanded on exponent
    tuples: each term c * m * z_n^e becomes c * m * form^e, with form^e
    multiplied out term by term."""
    fd, gd = _poly_dict(f), _poly_dict(form)
    out: dict[tuple[int, ...], int] = {}
    for exps, c in fd.items():
        power = {(0,) * len(exps): 1}
        for _ in range(exps[-1]):
            step: dict[tuple[int, ...], int] = {}
            for a, ca in power.items():
                for b, cb in gd.items():
                    e = _add_exps(a, b)
                    step[e] = (step.get(e, 0) + ca * cb) % p
            power = step
        base = exps[:-1] + (0,)
        for e, ce in power.items():
            e = _add_exps(base, e)
            out[e] = (out.get(e, 0) + c * ce) % p
    return {e: c for e, c in out.items() if c}


def hilbert_function(gens: Sequence, nvars: int, p: int, upto: int) -> list[int]:
    """Values of d -> dim (R/I)_d for d = 0..upto, by dense rank."""
    out = []
    for d in range(upto + 1):
        total = len(monomial_exponents(nvars, d))
        out.append(total - degree_span(gens, nvars, p, d).rank)
    return out


def in_ideal(f, gens: Sequence, nvars: int, p: int) -> bool:
    """Membership of a homogeneous f in the ideal generated by gens."""
    fd = _poly_dict(f)
    if not fd:
        return True
    d = sum(next(iter(fd)))
    index = {e: i for i, e in enumerate(monomial_exponents(nvars, d))}
    return degree_span(gens, nvars, p, d).contains(
        {index[e]: c for e, c in fd.items()}
    )


def degree_by_differences(hf: Sequence[int], affine_dim: int) -> int:
    """Scheme degree from eventual Hilbert function values: (affine_dim - 1)
    finite differences of a window where HF already agrees with the Hilbert
    polynomial leave the constant 'degree'."""
    vals = list(hf)
    for _ in range(max(affine_dim - 1, 0)):
        vals = [b - a for a, b in zip(vals, vals[1:])]
    if not vals:
        raise ValueError("window too short for the requested differences")
    return vals[-1]


def dim_quotient_piece(
    igens: Sequence, jgens: Sequence, nvars: int, p: int, d: int
) -> int:
    """dim (I : J)_d by kernel count: f is in the quotient iff f*g lands in
    I for every generator g of J; stack the residuals of all products and
    count the nullity."""
    mons = monomial_exponents(nvars, d)
    jd = [_poly_dict(g) for g in jgens if _poly_dict(g)]
    rows_per_f: list[dict[int, int]] = []
    # residual coordinates live in disjoint index blocks per J-generator
    blocks = []
    offset = 0
    for g in jd:
        gdeg = sum(next(iter(g)))
        target = monomial_exponents(nvars, d + gdeg)
        index = {e: i for i, e in enumerate(target)}
        span = degree_span(igens, nvars, p, d + gdeg)
        blocks.append((g, index, span, offset))
        offset += len(target)
    for m in mons:
        stacked: dict[int, int] = {}
        for g, index, span, off in blocks:
            prod = {index[_add_exps(m, e)]: c for e, c in g.items()}
            rem = span.normal_form(prod)
            for k, v in rem.items():
                stacked[off + k] = v
        rows_per_f.append(stacked)
    # nullity of the map f -> stacked residuals on the monomial basis
    span = DenseSpan(p)
    rank = sum(1 for row in rows_per_f if span.add(row))
    return len(mons) - rank


def dim_intersection_piece(
    igens: Sequence, jgens: Sequence, nvars: int, p: int, d: int
) -> int:
    """dim (I meet J)_d = dim I_d + dim J_d - dim (I + J)_d."""
    a = degree_span(igens, nvars, p, d).rank
    b = degree_span(jgens, nvars, p, d).rank
    both = degree_span(list(igens) + list(jgens), nvars, p, d).rank
    return a + b - both


def compose(A: GradedMatrix, B: GradedMatrix) -> GradedMatrix:
    """The product A * B of two graded matrices (B applied first)."""
    if B.row_twists != A.col_twists:
        raise ValueError("twist mismatch in composition")
    ring = A.ring
    grid = []
    for i in range(A.rows):
        row = []
        for k in range(B.cols):
            acc = ring.zero
            for j in range(A.cols):
                a = A.entries[i][j]
                b = B.entries[j][k]
                if not a.is_zero() and not b.is_zero():
                    acc = acc + a * b
            row.append(acc)
        grid.append(row)
    return GradedMatrix(ring, grid, A.row_twists, B.col_twists)


def shape_of(dicts: Sequence[dict[int, int]]) -> BettiTable:
    """The table with rank dicts[k][degree] at (k, degree)."""
    return BettiTable.from_dict({(k, d): r for k, s in enumerate(dicts) for d, r in s.items()})


def step_dicts(table: BettiTable) -> list[dict[int, int]]:
    """The ranks of a table per step, as {generator degree: rank}, through
    its last nonzero step."""
    dicts: list[dict[int, int]] = []
    for (k, d), r in table.data:
        while len(dicts) <= k:
            dicts.append({})
        dicts[k][d] = r
    return dicts


def total_rank(table: BettiTable) -> int:
    """The sum of the ranks over every step of a table."""
    return sum(r for _, r in table.data)


def cancel_adjacent(table: BettiTable, step: int, degree: int, count: int = 1) -> BettiTable:
    """The table with `count` ghost summands of the given degree removed from
    this step and the next one (a cancelling adjacent pair)."""
    dicts = step_dicts(table)
    for k in (step, step + 1):
        if k >= len(dicts) or dicts[k].get(degree, 0) < count:
            raise ValueError(f"no rank to cancel at step {k}, degree {degree}")
        dicts[k][degree] -= count
    return shape_of(dicts)


# ---------------------------------------------------------------- reference shapes
#
# The predicted shapes as a tuple of steps, each a list of (degree, rank),
# built from per-step {degree: count} dicts: the representation chern.BettiTable
# replaced, kept as the reference its builders and ghost_difference are
# compared against.


@dataclass(frozen=True)
class ReferenceShape:
    steps: tuple[tuple[tuple[int, int], ...], ...]

    @classmethod
    def from_dicts(cls, dicts: Sequence[dict[int, int]]) -> "ReferenceShape":
        return cls(tuple(tuple(sorted((d, r) for d, r in s.items() if r)) for s in dicts))

    def as_betti_dict(self) -> dict[tuple[int, int], int]:
        return {(k, d): r for k, s in enumerate(self.steps) for d, r in s}

    def ghost_difference(
        self, observed: dict[tuple[int, int], int]
    ) -> Optional[dict[tuple[int, int], int]]:
        """The ghost pairs cancelled between adjacent steps, over
        len(steps) steps at least."""
        shape = self.as_betti_dict()
        degrees = {d for (_, d) in shape} | {d for (_, d) in observed}
        nsteps = max(len(self.steps), 1 + max((k for (k, _) in observed), default=0))
        if any(rank < 0 for rank in observed.values()):
            return None
        cancels: dict[tuple[int, int], int] = {}
        for d in sorted(degrees):
            carry = 0
            for k in range(nsteps):
                c = shape.get((k, d), 0) - observed.get((k, d), 0) - carry
                if c < 0:
                    return None
                if c:
                    cancels[(k, d)] = c
                carry = c
            if carry != 0:
                return None
        return cancels

    def lines(self) -> list[str]:
        return [f"{k} {d} {r}" for k, s in enumerate(self.steps) for d, r in s]


def _count(acc: dict[int, int], d: int) -> None:
    acc[d] = acc.get(d, 0) + 1


def reference_resolution_r3(a: Sequence[int], b: Sequence[int]) -> ReferenceShape:
    c1 = sum(a) - sum(b)
    step0: dict[int, int] = {}
    step1: dict[int, int] = {}
    for ai in a:
        _count(step0, ai)
        _count(step1, c1 - ai)
    for bj in b:
        _count(step0, c1 - bj)
        _count(step1, bj)
    return ReferenceShape.from_dicts([step0, step1, {c1: 1}])


def reference_resolution(spec: TwistSpec) -> ReferenceShape:
    a, b, aux = spec.a, spec.b, spec.p
    q, r, c1 = len(aux), spec.r, spec.c1
    steps: list[dict[int, int]] = []
    for k in range(1, r + 1):
        acc: dict[int, int] = {}
        for i in range(0, k + q):
            rem = k + q - 1 - i
            if rem < 0 or rem % 2:
                continue
            j = rem // 2
            s = i + j
            if not (q <= s and 2 * s <= r + q - 1):
                continue
            for ca in combinations(a, i):
                for cb in combinations_with_replacement(b, j):
                    for cu in combinations_with_replacement(aux, s - q):
                        _count(acc, sum(ca) + sum(cb) - sum(cu))
        for i in range(0, r + 2 - q - k + 1):
            rem = r + 1 - q - k - i
            if rem < 0 or rem % 2:
                continue
            j = rem // 2
            s = i + j
            if not (2 * s <= r - q):
                continue
            for ca in combinations(a, i):
                for cb in combinations_with_replacement(b, j):
                    for cu in combinations_with_replacement(aux, r - q - s):
                        _count(acc, c1 - sum(ca) - sum(cb) - sum(cu))
        steps.append(acc)
    return ReferenceShape.from_dicts(steps)


def reference_resolution_aci(spec: GenBRSpec) -> ReferenceShape:
    b, d = spec.b, spec.d
    step0: dict[int, int] = {}
    for di in spec.ci_degrees:
        _count(step0, d - di)
    _count(step0, b - d)
    step1: dict[int, int] = {}
    for di in spec.ci_degrees:
        _count(step1, b - di)
    _count(step1, d)
    for e in spec.e2:
        _count(step1, b - e)
    step2: dict[int, int] = {}
    _count(step2, b + d - spec.alpha)
    for e in spec.e1:
        _count(step2, b - e)
    return ReferenceShape.from_dicts([step0, step1, step2])


# ---------------------------------------------------------------- evaluation


def evaluate(f, point: Sequence[int], p: int) -> int:
    """Value of a polynomial at a point of GF(p)^nvars."""
    total = 0
    for exps, c in _poly_dict(f).items():
        term = c
        for x, e in zip(point, exps):
            if e:
                term = term * pow(x, e, p) % p
        total = (total + term) % p
    return total


def det_scalar(m: list[list[int]], p: int) -> int:
    """Determinant over GF(p) by elimination."""
    m = [row[:] for row in m]
    size = len(m)
    det = 1
    for c in range(size):
        piv = next((i for i in range(c, size) if m[i][c] % p), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det = det * m[c][c] % p
        inv = pow(m[c][c], -1, p)
        for i in range(c + 1, size):
            f = m[i][c] * inv % p
            if f:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[c])]
    return det % p


def pfaffian_scalar(m: list[list[int]], p: int) -> int:
    """Pfaffian of an even skew matrix over GF(p), by recursive expansion
    along the first row."""
    size = len(m)
    if size % 2:
        return 0
    idx = tuple(range(size))

    def pf(s: tuple[int, ...]) -> int:
        if not s:
            return 1
        first = s[0]
        rest = s[1:]
        total = 0
        for pos, j in enumerate(rest):
            a = m[first][j] % p
            if not a:
                continue
            sub = pf(rest[:pos] + rest[pos + 1 :])
            term = a * sub % p
            total = (total + term if pos % 2 == 0 else total - term) % p
        return total

    return pf(idx)


# ---------------------------------------------------------------- reference routes
# Unlike the rest of this file these use the engine: they rebuild, from
# its public pieces, a route the package has since replaced, so that the
# new route can be compared against the old one.


def term_over_position_syzygies(columns, p: int, ambient_twists) -> list:
    """The syzygies as engine.tracked_syzygies built them before it ran the
    stage passes: one tracked term over position pass, whose zero
    reductions emit the combinations that produced them, plus unit
    syzygies for the zero columns, then pruned to a minimal generating
    subset in (degree, index) order, a zero column's unit read as degree 0."""
    col_degrees = []
    gb = ModuleGB(p, ambient_twists, track=True)
    syz = []
    for idx, col in enumerate(columns):
        if not col:
            col_degrees.append(0)
            syz.append({-idx: 1})
            continue
        col_degrees.append(vec_degree(col, ambient_twists))
        gb.add(dict(col), {-idx: 1})
    gb.complete()
    syz.extend(gb.emitted)
    return [syz[i] for i in minimal_generating_subset(syz, p, col_degrees)]


def stepwise_resolution(I) -> Resolution:
    """The resolution as free_resolution built it before one pass per stage:
    each stage is a separate term_over_position_syzygies call on the
    columns of the stage before.  No minimization."""
    ring = I.ring
    gens = list(I.gens)
    cols = [poly_to_vec(g) for g in gens]
    ambient: tuple[int, ...] = (0,)
    cur = [g.degree() for g in gens]
    twists = [list(cur)]
    matrices = []
    while True:
        syz = term_over_position_syzygies(cols, ring.p, ambient)
        if not syz:
            break
        degs = [vec_degree(s, cur) for s in syz]
        order = sorted(range(len(syz)), key=lambda i: (degs[i], i))
        syz = [syz[i] for i in order]
        degs = [degs[i] for i in order]
        matrices.append(GradedMatrix.from_columns(ring, tuple(cur), syz, degs))
        twists.append(degs)
        ambient = tuple(cur)
        cur = degs
        cols = syz
    return Resolution(ring, gens, twists, matrices)


def cancel_units(res: Resolution) -> tuple[Resolution, int]:
    """The resolution as Resolution.minimize built it before it resolved a
    minimal generating subset, and the count of unit pairs cancelled: each
    unit entry is cancelled by clearing its row with column operations and
    its column with row operations, mirrored as row operations on the next
    matrix and column operations on the previous one (or on the
    generators), until no unit entry is left."""
    ring = res.ring
    gens = list(res.generators)
    twists = [list(t) for t in res.twists]
    mats = [[list(row) for row in M.entries] for M in res.matrices]
    cancelled = 0

    def find_unit():
        for k, M in enumerate(mats):
            for i in range(len(twists[k])):
                for j in range(len(twists[k + 1])):
                    if twists[k + 1][j] == twists[k][i] and not M[i][j].is_zero():
                        return k, i, j
        return None

    while True:
        pos = find_unit()
        if pos is None:
            break
        k, i, j = pos
        cancelled += 1
        M = mats[k]
        inv = pow(M[i][j].terms[0][1], -1, ring.p)
        # clear row i using column ops; mirror as row ops on the next matrix
        for l in range(len(twists[k + 1])):
            if l == j or M[i][l].is_zero():
                continue
            q = ring.parse(str(inv)) * M[i][l]
            for m in range(len(twists[k])):
                M[m][l] = M[m][l] - q * M[m][j]
            if k + 1 < len(mats):
                nxt = mats[k + 1]
                for c2 in range(len(twists[k + 2])):
                    nxt[j][c2] = nxt[j][c2] + q * nxt[l][c2]
        # clear column j using row ops; mirror on the previous matrix/generators
        for m in range(len(twists[k])):
            if m == i or M[m][j].is_zero():
                continue
            q = ring.parse(str(inv)) * M[m][j]
            for l in range(len(twists[k + 1])):
                M[m][l] = M[m][l] - q * M[i][l]
            if k > 0:
                prev = mats[k - 1]
                for r in range(len(twists[k - 1])):
                    prev[r][i] = prev[r][i] + q * prev[r][m]
            else:
                gens[i] = gens[i] + q * gens[m]
        # drop the cancelled pair of summands
        del twists[k][i]
        del twists[k + 1][j]
        del M[i]
        for row in M:
            del row[j]
        if k > 0:
            for row in mats[k - 1]:
                del row[i]
        else:
            del gens[i]
        if k + 1 < len(mats):
            del mats[k + 1][j]
    while twists and not twists[-1]:
        twists.pop()
        mats.pop()
    if any(not t for t in twists):
        raise InvariantError("interior stage collapsed during minimization")
    out_mats = [GradedMatrix(ring, mats[k], twists[k], twists[k + 1]) for k in range(len(mats))]
    out = Resolution(ring, gens, twists, out_mats)
    if not out.is_minimal():
        raise InvariantError("unit entries survived minimization")
    return out, cancelled


def unpruned_quotient(I, targets: Sequence) -> Ideal:
    """(I : (targets)) as ideal_quotient computed it before the targets were
    pruned: one tracked pass on every nonzero target, rank one (with the
    product criterion) only when there is a single target, and the emitted
    cofactors pruned to a minimal generating subset."""
    ring = I.ring
    p = ring.p
    targets = [g for g in targets if not g.is_zero()]
    m = len(targets)
    maxdeg = max(g.degree() for g in targets)
    gb = ModuleGB(
        p,
        tuple(maxdeg - g.degree() for g in targets),
        track=True,
        use_product=(m == 1),
    )
    for f in I.groebner():
        for comp in range(m):
            gb.add(poly_to_vec(f, comp), {}, block=comp)
    target_vec = {}
    for comp, g in enumerate(targets):
        target_vec.update(poly_to_vec(g, comp))
    gb.add(target_vec, {0: 1})
    gb.complete()
    vals = [poly_to_vec(f) for f in I.gens] if m == 1 else []
    vals.extend(v for v in gb.emitted if v)
    keep = minimal_generating_subset(vals, p, (0,))
    return Ideal(ring, [vec_to_poly(ring, vals[i]) for i in keep])


def ideal_product(I: Ideal, J: Ideal) -> Ideal:
    """The ideal generated by every product of a generator of I and one of J."""
    return Ideal(I.ring, tuple(f * g for f in I.gens for g in J.gens))


def saturated_by(I: Ideal, h) -> Ideal:
    """I : h^infinity by quotients by the form h until they stop growing."""
    while True:
        bigger = ideal_quotient(I, Ideal(I.ring, [h]))
        if bigger.equals(I):
            return I
        I = bigger


def quotient_loop_saturation(I: Ideal) -> Ideal:
    """saturation by quotients: for each variable v, quotients by v until
    they stop growing (at most 60), the results intersected, with the same
    protocol notes as ideals.saturation."""
    if I.is_zero():
        return I
    result = None
    for v in I.ring.variables():
        current = I
        steps = 0
        with recording(None):
            while True:
                bigger = ideal_quotient(current, Ideal(I.ring, [v]))
                if all(current.contains(q) for q in bigger.gens):
                    break
                current = bigger
                steps += 1
                if steps > 60:
                    raise InvariantError("saturation failed to stabilize")
            result = current if result is None else ideal_intersection(result, current)
        if steps:
            note(f"saturation by {v} stabilized after {steps} quotients")
    note(f"saturation: {len(result.gens)} generators")
    return result


def top_part_cut(I: Ideal, r: int, degree: int, rng):
    """The draw of r forms of one degree inside I as top_dimensional_part
    made it before ideals.draw_regular_sequence: five attempts, each form
    the sum over I's generators of a sparse form times the generator.
    (the regular sequence's ideal, the attempt that drew it), or None."""
    ring = I.ring
    for attempt in range(5):
        combos = []
        for _ in range(r):
            f = ring.zero
            for g in I.gens:
                f = f + ring.sparse_form(degree - g.degree(), rng) * g
            combos.append(f)
        J = regular_sequence(ring, combos)
        if J is not None:
            return J, attempt + 1
    return None


def complete_intersection_cut(IG: Ideal, degrees: Sequence[int], rng):
    """The draw of a complete intersection of the given degrees inside IG
    as the liaison layer made it before ideals.draw_regular_sequence: 20
    attempts, generators above a degree skipped.  (the complete
    intersection, the attempt that drew it), or None."""
    ring = IG.ring
    for attempt in range(20):
        forms = []
        for dk in degrees:
            f = ring.zero
            for g in IG.gens:
                rel = dk - g.degree()
                if rel >= 0:
                    f = f + ring.sparse_form(rel, rng) * g
            forms.append(f)
        ci = regular_sequence(ring, forms)
        if ci is not None:
            return ci, attempt + 1
    return None


def batch_groebner(I: Ideal) -> tuple:
    """I's reduced Groebner basis by the batch route: every generator added
    unreduced, all pairs queued at once, then one completion."""
    gb = ModuleGB(I.ring.p, (0,), use_product=True)
    for g in I.gens:
        gb.add(poly_to_vec(g))
    gb.complete()
    return tuple(vec_to_poly(I.ring, v) for v in gb.reduced_basis())


def canonical_generators(I: Ideal) -> tuple:
    """The members of I's reduced Groebner basis that the full pruning
    keeps: each one, in ascending order, tested against a chain-criterion
    basis of those kept before it, completed through its degree."""
    basis = batch_groebner(I)
    inc = ModuleGB(I.ring.p, (0,))
    kept = []
    for g in basis:
        inc.complete_to(g.degree())
        if inc.add_remainder(poly_to_vec(g)):
            kept.append(g)
    return tuple(kept)


def minimal_generator_counts(gens: Sequence, nvars: int, p: int, upto: int) -> list[int]:
    """dim I_d - dim (m I_{d-1})_d for d = 0..upto, m the irrelevant ideal:
    (m I)_d is spanned by the multiples of the generators of degree below d."""
    out = []
    for d in range(upto + 1):
        lower = [g for g in gens if g.degree() < d]
        out.append(degree_span(gens, nvars, p, d).rank - degree_span(lower, nvars, p, d).rank)
    return out


def hilbert_numerator_dense(gens: Sequence, nvars: int, p: int, upto: int) -> list[int]:
    """Coefficients of t^0..t^upto of (1 - t)^nvars * sum_d dim (R/I)_d t^d,
    from the dense Hilbert function: the numerator of the Hilbert series
    when its degree is at most upto."""
    series = hilbert_function(gens, nvars, p, upto)
    for _ in range(nvars):
        series = [series[0]] + [b - a for a, b in zip(series, series[1:])]
    return series


def scan_dimension(I: Ideal) -> int:
    """Krull dimension of R/I by a scan of all 2^nvars variable subsets: the
    size of the largest subset that holds the support of no lead monomial of
    I's Groebner basis; nvars for the zero ideal, -1 for the unit ideal."""
    nvars = I.ring.nvars
    supports = set()
    for g in I.groebner():
        supports.add(sum(1 << i for i, e in enumerate(key_exponents(g.terms[0][0], nvars)) if e))
    best = -1
    for s in range(1 << nvars):
        if all(m & ~s for m in supports):
            best = max(best, bin(s).count("1"))
    return best


class _EagerElt:
    __slots__ = ("vec", "track", "comp", "lead")

    def __init__(self, vec: dict, track, lead: int):
        self.vec = vec
        self.track = track
        self.comp = key_component(lead)
        self.lead = lead


class EagerModuleGB:
    """engine.ModuleGB as it reduced before lazy coefficients: each element
    keeps its whole vector, every term operation takes its result mod p and
    drops a zero, the reducer is found by a linear first-divisor scan, and
    reduced_basis reduces against the minimal elements alone, skipping the
    one reduced.  Pair queue and tracking are those of ModuleGB, and so are
    the criteria of a tracked basis, so on the same tracked calls both must
    give equal bases, remainders, values and emitted relations.  In an
    untracked basis it keeps the strict chain criterion, without the
    treated-pair rule, so there the two agree on what depends on the ideal
    alone: reduced bases and normal forms through a completed degree.  `recreated` counts the terms that cancelled to zero
    inside one reduction and were created again later in it."""

    def __init__(self, p, twists, *, track=False, use_product=False, use_chain=False,
                 shift=0, value_shift=0):
        self.twists = tuple(twists)
        if use_product and (len(self.twists) > 1 or shift):
            raise ValueError("product criterion needs rank one, term over position")
        self.p = p
        self.track = track
        self.shift = shift
        self._lift = value_shift - shift
        self._guard, self._mask = divisor_masks(shift)
        self.elts: list[_EagerElt] = []
        self.by_comp: dict[int, list[_EagerElt]] = {}
        self.pairs: list[tuple[int, int, int]] = []
        self.block: list[int] = []
        self.emitted: list[dict] = []
        self.use_product = use_product
        self.use_chain = use_chain
        self.recreated = 0

    def add(self, vec, value=None, block=-1):
        if not vec:
            raise ValueError("cannot add the zero vector")
        lead = max(vec)
        lc = vec[lead]
        if lc != 1:
            inv = pow(lc, -1, self.p)
            vec = _eager_scale(vec, inv, self.p)
            if value:
                value = _eager_scale(value, inv, self.p)
        if self.track and value is None:
            value = {}
        self._append(_EagerElt(vec, value, lead), block)

    def add_remainder(self, vec, value=None) -> bool:
        rem, value = self._reduce(vec, value)
        if not rem:
            return False
        self.add(rem, value)
        return True

    def _append(self, elt, block):
        m = len(self.elts)
        shift = self.shift
        self.elts.append(elt)
        self.block.append(block)
        for i, other in enumerate(self.elts[:m]):
            if other.comp != elt.comp:
                continue
            if block >= 0 and self.block[i] == block:
                continue
            d = key_degree(key_lcm(other.lead, elt.lead, shift), shift)
            heappush(self.pairs, (d + self.twists[elt.comp], i, m))
        self.by_comp.setdefault(elt.comp, []).append(elt)

    def _find_reducer(self, t, skip=None):
        for g in self.by_comp.get(key_component(t), ()):
            if g is not skip and (g.lead - t + self._guard) & self._mask == self._guard:
                return g
        return None

    def _reduce(self, vec, value, skip=None):
        p = self.p
        heap = [-t for t in vec]
        heapify(heap)
        out = {}
        cancelled: set[int] = set()
        while heap:
            t = -heappop(heap)
            coeff = vec.pop(t, 0)
            if not coeff:
                continue
            red = self._find_reducer(t, skip)
            if red is None:
                out[t] = coeff
                continue
            shift = t - red.lead
            self._axpy_heap(vec, heap, coeff, shift, red.vec, t, cancelled)
            if value is not None and red.track:
                _eager_axpy(value, p - coeff, shift << self._lift, red.track, p)
        return out, value

    def _axpy_heap(self, vec, heap, factor, shift, src, skip, cancelled):
        """vec -= factor * x^shift * src, pushing newly created terms."""
        p = self.p
        for rt, rc in src.items():
            t = rt + shift
            if t == skip:
                continue
            old = vec.get(t)
            if old is None:
                nv = (-factor * rc) % p
                if nv:
                    if t in cancelled:
                        self.recreated += 1
                    vec[t] = nv
                    heappush(heap, -t)
            else:
                nv = (old - factor * rc) % p
                if nv:
                    vec[t] = nv
                else:
                    del vec[t]
                    cancelled.add(t)

    def normal_form(self, vec):
        return self._reduce(dict(vec), None)[0]

    def _step(self):
        d, i, j = heappop(self.pairs)
        gi = self.elts[i]
        gj = self.elts[j]
        shift = self.shift
        lcm = key_lcm(gi.lead, gj.lead, shift)
        if self.use_product and lcm == gi.lead + gj.lead:
            return
        if self.use_chain:
            for gk in self.by_comp.get(gi.comp, ()):
                if gk is gi or gk is gj:
                    continue
                if key_divides(gk.lead, lcm, shift):
                    lik = key_lcm(gi.lead, gk.lead, shift)
                    ljk = key_lcm(gj.lead, gk.lead, shift)
                    if lik != lcm and ljk != lcm:
                        return
        p = self.p
        si = lcm - gi.lead
        sj = lcm - gj.lead
        svec: dict = {}
        _eager_axpy(svec, p - 1, si, gi.vec, p)
        _eager_axpy(svec, 1, sj, gj.vec, p)
        svalue = None
        if self.track:
            svalue = {}
            _eager_axpy(svalue, p - 1, si << self._lift, gi.track, p)
            _eager_axpy(svalue, 1, sj << self._lift, gj.track, p)
        rem, remval = self._reduce(svec, svalue)
        if not rem:
            if self.track and remval:
                self.emitted.append(remval)
            return
        lead = max(rem)
        lc = rem[lead]
        if lc != 1:
            inv = pow(lc, -1, p)
            rem = _eager_scale(rem, inv, p)
            if remval is not None:
                remval = _eager_scale(remval, inv, p)
        self._append(_EagerElt(rem, remval, lead), -1)

    def complete_to(self, degree):
        while self.pairs and self.pairs[0][0] <= degree:
            self._step()

    def complete(self):
        while self.pairs:
            self._step()

    def basis(self):
        return [g.vec for g in self.elts]

    def reduced_basis(self):
        if self.pairs:
            raise ValueError("complete() the basis first")
        order = sorted(self.elts, key=lambda g: -g.lead)
        order.reverse()  # ascending monomial order
        kept: list[_EagerElt] = []
        for g in order:
            if not any(key_divides(h.lead, g.lead, self.shift) for h in kept):
                kept.append(g)
        saved_by_comp = self.by_comp
        self.by_comp = {}
        for g in kept:
            self.by_comp.setdefault(g.comp, []).append(g)
        out = [self._reduce(dict(g.vec), None, skip=g)[0] for g in kept]
        self.by_comp = saved_by_comp
        return out


def _eager_scale(vec: dict, c: int, p: int) -> dict:
    return {k: v * c % p for k, v in vec.items()}


def _eager_axpy(vec: dict, factor: int, shift: int, src, p: int) -> None:
    """vec += factor * x^shift * src, mod p, zero entries dropped."""
    if not src:
        return
    for rt, rc in src.items():
        t = rt + shift
        nv = (vec.get(t, 0) + factor * rc) % p
        if nv:
            vec[t] = nv
        else:
            vec.pop(t, None)
