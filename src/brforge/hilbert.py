"""Hilbert series data for homogeneous ideals.

One route gives every numerical invariant of R/I: the numerator Q of the
Hilbert series H(t) = Q(t) / (1 - t)^nvars, computed by Bigatti's pivot
recursion ("Computation of Hilbert-Poincare series", J. Pure Appl. Algebra
119, 1997) on the lead monomials of a Groebner basis.  Monomials enter as
packed keys (ring.monomial_key): divisibility is one subtraction and mask,
and dividing by a monomial subtracts its key.  The dimension of R/I is the
order of the pole at t = 1, so the codimension counts the exact divisions
of Q by (1 - t) while Q(1) = 0; what remains is the second numerator (the
h-vector), whose value at 1 is the degree.  Everything else is integer list
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from math import factorial, prod
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .ring import MAX_N, divisor_masks, key_degree, key_lcm, monomial_key

if TYPE_CHECKING:  # ideals imports engine, which imports this module
    from .ideals import Ideal

__all__ = [
    "HilbertReport",
    "complete_intersection_numerator",
    "hilbert_numerator",
    "hilbert_report",
    "hilbert_function_values",
    "numerator_report",
]

# the key of z_i, the same in every ring
_VARIABLES = tuple(monomial_key((0,) * i + (1,)) for i in range(MAX_N + 1))
_GUARD, _MASK = divisor_masks()


def _minimalize(keys: Iterable[int]) -> tuple[int, ...]:
    """Minimal generators of the monomial ideal the keys span, ascending.
    Keys ascend by degree, so a divisor comes before its multiples."""
    kept: list[int] = []
    for m in sorted(set(keys)):
        if not any((k - m + _GUARD) & _MASK == _GUARD for k in kept):
            kept.append(m)
    return tuple(kept)


def _poly_sub(a: list[int], b: list[int]) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_add_shift(a: list[int], b: list[int], shift: int) -> list[int]:
    out = [0] * max(len(a), len(b) + shift)
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i + shift] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def complete_intersection_numerator(degrees: Sequence[int]) -> list[int]:
    """prod (1 - t^d) over the degrees: the first numerator of R modulo a
    regular sequence of forms of these degrees, pure powers among them."""
    out = [1]
    for d in degrees:
        nxt = [0] * (len(out) + d)
        for i, c in enumerate(out):
            nxt[i] += c
            nxt[i + d] -= c
        out = nxt
    while out and out[-1] == 0:
        out.pop()
    return out


def hilbert_numerator(leads: Iterable[int], nvars: int) -> list[int]:
    """First Hilbert series numerator Q with H_{R/I}(t) = Q(t)/(1-t)^nvars,
    for I the monomial ideal of these keys, by pivot recursion: with x the
    first variable that most non-pure generators hold,
    Q(I) = Q(I + (x)) + t Q(I : x)."""
    variables = _VARIABLES[:nvars]
    memo: dict[tuple[int, ...], list[int]] = {}

    def rec(gens: tuple[int, ...]) -> list[int]:
        # gens are minimal and ascending, so the unit monomial, key 0, is first
        if not gens:
            return [1]
        if gens[0] == 0:
            return []
        got = memo.get(gens)
        if got is not None:
            return got
        pure: list[int] = []
        rest: list[int] = []
        counts = [0] * nvars
        for m in gens:
            support = [i for i, x in enumerate(variables) if (x - m + _GUARD) & _MASK == _GUARD]
            if len(support) == 1:
                pure.append(m)
            else:
                rest.append(m)
                for i in support:
                    counts[i] += 1
        if len(rest) > 1:
            x = variables[counts.index(max(counts))]
            divisible = [(x - m + _GUARD) & _MASK == _GUARD for m in gens]
            with_pivot = _minimalize(m - x if d else m for m, d in zip(gens, divisible))
            without = _minimalize([m for m, d in zip(gens, divisible) if not d] + [x])
            out = _poly_add_shift(rec(without), rec(with_pivot), 1)
        else:
            out = complete_intersection_numerator([key_degree(q) for q in pure])
            if rest:
                # Q(P + (m)) = Q(P) - t^deg(m) Q(P : m) for the pure powers
                # P, and P : m is again pure powers, or the unit ideal
                m = rest[0]
                colon = [key_lcm(q, m) - m for q in pure]
                quot = []
                if all(colon):
                    quot = complete_intersection_numerator([key_degree(c) for c in colon])
                out = _poly_sub(out, [0] * key_degree(m) + quot)
        memo[gens] = out
        return out

    return rec(_minimalize(leads))


@dataclass(frozen=True)
class HilbertReport:
    """Numerical summary of R/I: both series numerators, dimensions, degree."""

    characteristic: int
    nvars: int
    first_series: tuple[int, ...]
    second_series: tuple[int, ...]
    affine_dimension: int
    codimension: int
    degree: int
    arithmetic_genus: Optional[int] = field(default=None)

    @property
    def projective_dimension(self) -> int:
        return self.affine_dimension - 1

    def as_dict(self) -> dict:
        d = {
            "characteristic": self.characteristic,
            "nvars": self.nvars,
            "first_series": list(self.first_series),
            "h_vector": list(self.second_series),
            "affine_dimension": self.affine_dimension,
            "projective_dimension": self.projective_dimension,
            "codimension": self.codimension,
            "degree": self.degree,
        }
        if self.arithmetic_genus is not None:
            d["arithmetic_genus"] = self.arithmetic_genus
        return d


def _binomial(x: int, k: int) -> int:
    """binom(x, k) for any integer x: x (x-1) ... (x-k+1) / k!."""
    return prod(range(x - k + 1, x + 1)) // factorial(k)


def hilbert_report(I: Ideal) -> HilbertReport:
    """The report of R/I from the lead keys of I's reduced Groebner basis."""
    nvars = I.ring.nvars
    q = hilbert_numerator([g.terms[0][0] for g in I.groebner()], nvars)
    return numerator_report(I.ring.p, nvars, q)


def numerator_report(p: int, nvars: int, q: Sequence[int]) -> HilbertReport:
    """The report of R/I, R of characteristic p in nvars variables, from the
    first numerator q of its Hilbert series.  The unit ideal, q = 0, has
    affine dimension -1."""
    h = list(q)
    dim = nvars if q else -1
    while h and sum(h) == 0:  # Q(1) = 0: divide exactly by (1 - t)
        h = list(accumulate(h))[:-1]
        dim -= 1
    codim = nvars - dim
    degree = sum(h)
    genus: Optional[int] = None
    if dim >= 2:
        # p_a = (-1)^(dim-1) (HP(0) - 1) with HP the Hilbert polynomial,
        # HP(m) = sum_i h_i binom(m - i + dim - 1, dim - 1)
        hp0 = sum(hi * _binomial(dim - 1 - i, dim - 1) for i, hi in enumerate(h))
        genus = (-1) ** (dim - 1) * (hp0 - 1)
    return HilbertReport(
        characteristic=p,
        nvars=nvars,
        first_series=tuple(q),
        second_series=tuple(h),
        affine_dimension=dim,
        codimension=codim,
        degree=degree,
        arithmetic_genus=genus,
    )


def hilbert_function_values(numerator: Sequence[int], nvars: int, upto: int) -> list[int]:
    """Coefficients of t^0..t^upto in numerator(t) / (1-t)^nvars: with a
    first series numerator, the Hilbert function of R/I in those degrees."""
    out = [0] * (upto + 1)
    out[: len(numerator)] = numerator[: upto + 1]
    for _ in range(nvars):
        acc = 0
        for d in range(upto + 1):
            acc += out[d]
            out[d] = acc
    return out
