"""Hilbert series data for homogeneous ideals.

The standard route: the numerator of the Hilbert series of R/I over the free
resolution-free pivot recursion on the leading-term ideal, then repeated
exact division by (1 - t) down to the codimension to reach the second
series (the h-vector).  Everything here is integer list arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial, prod
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # ideals imports engine, which imports this module
    from .ideals import Ideal

__all__ = [
    "HilbertReport",
    "hilbert_numerator",
    "hilbert_report",
    "hilbert_function_values",
]


def _minimalize(gens: Sequence[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    uniq = sorted(set(gens), key=lambda e: (sum(e), e))
    kept: list[tuple[int, ...]] = []
    for m in uniq:
        if not any(all(a <= b for a, b in zip(k, m)) for k in kept):
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


def _pure_power_product(degrees: Sequence[int]) -> list[int]:
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


def hilbert_numerator(lead_exps: Sequence[tuple[int, ...]], nvars: int) -> list[int]:
    """First Hilbert series numerator Q with H_{R/I}(t) = Q(t)/(1-t)^nvars,
    computed from the monomial (leading term) ideal by pivot recursion."""
    memo: dict[tuple[tuple[int, ...], ...], list[int]] = {}

    def rec(gens: tuple[tuple[int, ...], ...]) -> list[int]:
        if not gens:
            return [1]
        if any(sum(m) == 0 for m in gens):
            return []
        got = memo.get(gens)
        if got is not None:
            return got
        pure = [m for m in gens if sum(1 for e in m if e) == 1]
        rest = [m for m in gens if sum(1 for e in m if e) > 1]
        if not rest:
            out = _pure_power_product([sum(m) for m in pure])
        elif len(rest) == 1:
            base = _pure_power_product([sum(m) for m in pure])
            m = rest[0]
            # (pure powers : m) is again pure powers, clipped
            colon: list[int] = []
            unit = False
            for q in pure:
                v = next(i for i, e in enumerate(q) if e)
                reduced = sum(q) - m[v]
                if reduced <= 0:
                    unit = True
                    break
                colon.append(reduced)
            if unit:
                quot: list[int] = []
            else:
                quot = _pure_power_product(colon)
            out = _poly_sub(base, [0] * sum(m) + quot)
        else:
            counts = [0] * nvars
            for m in rest:
                for i, e in enumerate(m):
                    if e:
                        counts[i] += 1
            pivot = counts.index(max(counts))
            with_pivot = _minimalize(
                [tuple(e - 1 if i == pivot else e for i, e in enumerate(m)) if m[pivot] else m for m in gens]
            )
            one = tuple(1 if i == pivot else 0 for i in range(nvars))
            without = _minimalize([m for m in gens if m[pivot] == 0] + [one])
            out = _poly_add_shift(rec(without), rec(with_pivot), 1)
        memo[gens] = out
        return out

    return rec(_minimalize(lead_exps))


def _divide_one_minus_t(q: list[int]) -> list[int]:
    """Exact division by (1 - t); raises if not exact."""
    out: list[int] = []
    run = 0
    for c in q:
        run += c
        out.append(run)
    if out and out[-1] != 0:
        raise ArithmeticError("series not divisible by (1 - t)")
    while out and out[-1] == 0:
        out.pop()
    return out


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

    @property
    def h_vector(self) -> tuple[int, ...]:
        return self.second_series

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
    nvars = I.ring.nvars
    q = hilbert_numerator(I.leading_exponents(), nvars) if not I.is_zero() else [1]
    dim = I.affine_dimension()
    codim = nvars - dim
    h = list(q)
    for _ in range(codim):
        h = _divide_one_minus_t(h)
    degree = sum(h)
    genus: Optional[int] = None
    if dim >= 2:
        # p_a = (-1)^(dim-1) (HP(0) - 1) with HP the Hilbert polynomial,
        # HP(m) = sum_i h_i binom(m - i + dim - 1, dim - 1)
        hp0 = sum(hi * _binomial(dim - 1 - i, dim - 1) for i, hi in enumerate(h))
        genus = (-1) ** (dim - 1) * (hp0 - 1)
    return HilbertReport(
        characteristic=I.ring.p,
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
