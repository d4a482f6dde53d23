"""Independent cross-checks for the test suite.

Everything here recomputes invariants with dense linear algebra over GF(p),
direct combinatorics, or random-point evaluation, deliberately avoiding the
package's Groebner machinery, so agreement between the two is evidence
rather than tautology.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from brforge.engine import tracked_syzygies, vec_degree
from brforge.ideals import poly_to_vec
from brforge.resolution import GradedMatrix, Resolution
from brforge.ring import key_component, key_exponents, monomial_key


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
            rem = span._reduce(prod)
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


def stepwise_resolution(I) -> Resolution:
    """The resolution as free_resolution built it before one pass per stage:
    each stage is a separate tracked_syzygies call (a term over position
    pass plus its own pruning pass) on the columns of the stage before.  No
    minimization."""
    ring = I.ring
    gens = list(I.gens)
    cols = [poly_to_vec(g) for g in gens]
    ambient: tuple[int, ...] = (0,)
    cur = [g.degree() for g in gens]
    twists = [list(cur)]
    matrices = []
    while True:
        syz = tracked_syzygies(cols, ring.p, ambient)
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


def hilbert_numerator_dense(gens: Sequence, nvars: int, p: int, upto: int) -> list[int]:
    """Coefficients of t^0..t^upto of (1 - t)^nvars * sum_d dim (R/I)_d t^d,
    from the dense Hilbert function: the numerator of the Hilbert series
    when its degree is at most upto."""
    series = hilbert_function(gens, nvars, p, upto)
    for _ in range(nvars):
        series = [series[0]] + [b - a for a, b in zip(series, series[1:])]
    return series
