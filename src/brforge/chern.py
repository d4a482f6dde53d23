"""Integer predictions: Chern coefficients, expected degrees, and expected
minimal resolution shapes from twist data alone, and the graded Betti table
those shapes and computed resolutions share.

All computations here are exact integer combinatorics on twist multisets; no
polynomial arithmetic is involved, and the module imports no other brforge
module.  Conventions: twist parameters are the positive numbers attached to
a construction (for a section of the kernel of a map with entry degree e and
section degree D: a_i = D - e repeated over the source rank, b_j = D over
the target rank), and an expected shape is a BettiTable built from the
generator degrees of each homological step, step 0 being the ideal
generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from typing import Optional, Sequence

__all__ = [
    "TwistSpec",
    "ChernReport",
    "chern_coefficients",
    "degree_formula_r3",
    "BettiTable",
    "expected_resolution",
    "expected_resolution_r3",
    "GenBRSpec",
    "expected_resolution_aci",
    "elementary_symmetric",
]


def elementary_symmetric(values: Sequence[int], k: int) -> int:
    if k < 0:
        return 0
    if k == 0:
        return 1
    if k > len(values):
        return 0
    total = 0
    for combo in combinations(values, k):
        prod = 1
        for v in combo:
            prod *= v
        total += prod
    return total


@dataclass(frozen=True)
class TwistSpec:
    """Twist data of a kernel construction.

    a: source twists (length f = target rank + kernel rank)
    b: target twists (length g)
    n: ambient projective dimension
    p: twists of the auxiliary rank-q factor entering the expected shape;
       the plain kernel case is p = (0,).  Requires q < r = f - g.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]
    n: int
    p: tuple[int, ...] = (0,)

    def __post_init__(self):
        if not self.a or not self.b or not self.p:
            raise ValueError("all twist tuples must be nonempty")
        if len(self.a) <= len(self.b):
            raise ValueError("source rank must exceed target rank")
        if not len(self.p) < len(self.a) - len(self.b):
            raise ValueError("auxiliary rank must stay below the kernel rank")

    @property
    def r(self) -> int:
        return len(self.a) - len(self.b)

    @property
    def c1(self) -> int:
        return sum(self.a) - sum(self.b)


@dataclass(frozen=True)
class ChernReport:
    coefficients: tuple[int, ...]
    r: int

    @property
    def c1(self) -> int:
        return self.coefficients[1] if len(self.coefficients) > 1 else 0

    @property
    def expected_degree(self) -> int:
        return self.coefficients[self.r]

    def as_dict(self) -> dict:
        return {
            "coefficients": list(self.coefficients),
            "r": self.r,
            "c1": self.c1,
            "expected_degree": self.expected_degree,
        }


def chern_coefficients(spec: TwistSpec) -> ChernReport:
    """Coefficients c_0..c_n of prod(1 + a_i w) / prod(1 + b_j w) truncated
    at w^n; c_r is the expected degree of the codimension-r locus."""
    n = spec.n
    if spec.r > n:
        raise ValueError(f"codimension {spec.r} exceeds ambient dimension {n}")
    num = [0] * (n + 1)
    num[0] = 1
    for a in spec.a:
        for k in range(n, 0, -1):
            num[k] += a * num[k - 1]
    # divide by each (1 + b w) in sequence: s_k = num_k - b * s_{k-1}
    series = num
    for b in spec.b:
        nxt = [0] * (n + 1)
        for k in range(n + 1):
            nxt[k] = series[k] - (b * nxt[k - 1] if k else 0)
        series = nxt
    return ChernReport(coefficients=tuple(series), r=spec.r)


def degree_formula_r3(a: Sequence[int], b: Sequence[int]) -> int:
    """Closed-form degree for codimension 3: the w^3 coefficient of
    prod(1 + a_i w)/prod(1 + b_j w), written in elementary symmetric
    functions so it is independent of the target rank t = len(b)
    (s_k(b) vanishes when k > t, which recovers the small-t special cases).
    """
    s1 = elementary_symmetric(a, 1)
    s2 = elementary_symmetric(a, 2)
    s3 = elementary_symmetric(a, 3)
    t1 = elementary_symmetric(b, 1)
    t2 = elementary_symmetric(b, 2)
    t3 = elementary_symmetric(b, 3)
    return s3 - s2 * t1 + s1 * (t1 * t1 - t2) - (t1**3 - 2 * t1 * t2 + t3)


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers as ((homological step, generator degree), rank)
    pairs in ascending order, zero ranks dropped; step 0 holds the ideal's
    generators.  One type serves the tables predicted from twist data and
    the ones read off computed resolutions, so the two compare with ==."""

    data: tuple[tuple[tuple[int, int], int], ...]

    @classmethod
    def from_dict(cls, d: dict[tuple[int, int], int]) -> "BettiTable":
        return cls(tuple(sorted((k, v) for k, v in d.items() if v)))

    @classmethod
    def from_twists(cls, twist_lists: Sequence[Sequence[int]]) -> "BettiTable":
        """The table of one list of generator degrees per step."""
        acc: dict[tuple[int, int], int] = {}
        for step, twists in enumerate(twist_lists):
            for d in twists:
                acc[(step, d)] = acc.get((step, d), 0) + 1
        return cls.from_dict(acc)

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.data)

    # the benchmark's checks read predicted tables by this name
    as_betti_dict = as_dict

    def ghost_difference(
        self, observed: dict[tuple[int, int], int]
    ) -> Optional[dict[tuple[int, int], int]]:
        """If the observed Betti table is this one minus complete adjacent
        cancelling pairs, return {(step, degree): pairs cancelled between
        step and step+1}; otherwise None."""
        table = self.as_dict()
        if any(rank < 0 for rank in observed.values()):
            return None
        keys = table.keys() | observed.keys()
        nsteps = 1 + max((k for k, _ in keys), default=0)
        cancels: dict[tuple[int, int], int] = {}
        for d in sorted({d for _, d in keys}):
            carry = 0
            for k in range(nsteps):
                c = table.get((k, d), 0) - observed.get((k, d), 0) - carry
                if c < 0:
                    return None
                if c:
                    cancels[(k, d)] = c
                carry = c
            if carry != 0:
                return None
        return cancels

    def lines(self) -> list[str]:
        return [f"{step} {deg} {rank}" for (step, deg), rank in self.data]

    def __str__(self) -> str:
        return "\n".join(self.lines())


def _subset_sums(values: Sequence[int], k: int) -> list[int]:
    return [sum(c) for c in combinations(values, k)]


def _multisubset_sums(values: Sequence[int], k: int) -> list[int]:
    return [sum(c) for c in combinations_with_replacement(values, k)]


def expected_resolution_r3(a: Sequence[int], b: Sequence[int]) -> BettiTable:
    """Closed three-step shape for kernel rank 3: generators at degrees
    {a_i} + {c1 - b_j}, first syzygies at {c1 - a_i} + {b_j}, and a single
    top twist c1.  Possibly non-minimal; ghost pairs cancel between steps."""
    if len(a) != len(b) + 3:
        raise ValueError("kernel rank 3 needs len(a) = len(b) + 3")
    c1 = sum(a) - sum(b)
    return BettiTable.from_twists(
        [[*a, *(c1 - bj for bj in b)], [*(c1 - ai for ai in a), *b], [c1]]
    )


def expected_resolution(spec: TwistSpec) -> BettiTable:
    """Expected minimal resolution shape of the top-dimensional part of the
    zero locus of a generic section, from twist data alone.

    Step k-1 of the output (k = 1..r) collects two families:
      A: over i + 2j = k + q - 1 with q <= i + j <= (r + q - 1) / 2,
         degrees (i-subset sums of a) + (j-multisubset sums of b)
                 - ((i + j - q)-multisubset sums of p);
      C: over i + 2j = r + 1 - q - k with i + j <= (r - q) / 2,
         degrees c1 - (i-subset sums of a) - (j-multisubset sums of b)
                 - ((r - q - i - j)-multisubset sums of p).
    """
    a, b, aux = spec.a, spec.b, spec.p
    q = len(aux)
    r = spec.r
    c1 = spec.c1
    steps: list[list[int]] = []
    for k in range(1, r + 1):
        degrees: list[int] = []
        for i in range(0, k + q):
            rem = k + q - 1 - i
            if rem < 0 or rem % 2:
                continue
            j = rem // 2
            s = i + j
            if not (q <= s and 2 * s <= r + q - 1):
                continue
            for sa in _subset_sums(a, i):
                for sb in _multisubset_sums(b, j):
                    for su in _multisubset_sums(aux, s - q):
                        degrees.append(sa + sb - su)
        for i in range(0, r + 2 - q - k + 1):
            rem = r + 1 - q - k - i
            if rem < 0 or rem % 2:
                continue
            j = rem // 2
            s = i + j
            if not (2 * s <= r - q):
                continue
            for sa in _subset_sums(a, i):
                for sb in _multisubset_sums(b, j):
                    for su in _multisubset_sums(aux, r - q - s):
                        degrees.append(c1 - sa - sb - su)
        steps.append(degrees)
    return BettiTable.from_twists(steps)


@dataclass(frozen=True)
class GenBRSpec:
    """Twist data for the kernel construction over a codimension-3
    arithmetically Gorenstein ideal.

    e1/e2: generator degrees of the ideal's minimal resolution stages 0/1.
    ci_degrees: degrees of the three complete-intersection forms chosen
    inside the ideal.  ell: the twist parameter read off the resolution's
    last stage (generator degree n + 1 - ell).  d: the section degree.
    """

    e1: tuple[int, ...]
    e2: tuple[int, ...]
    ci_degrees: tuple[int, int, int]
    ell: int
    d: int
    n: int = 3

    def __post_init__(self):
        if len(self.e1) != len(self.e2):
            raise ValueError("resolution stages must have equal rank")
        if len(self.ci_degrees) != 3:
            raise ValueError("exactly three complete intersection degrees required")
        if self.d <= max(self.ci_degrees):
            raise ValueError("section twist must exceed every intersection degree")

    @property
    def alpha(self) -> int:
        return sum(self.ci_degrees)

    @property
    def b(self) -> int:
        return 2 * self.d - self.alpha - self.ell + self.n + 1


def expected_resolution_aci(spec: GenBRSpec) -> BettiTable:
    """Expected (possibly non-minimal) resolution shape of the section's
    vanishing ideal in the generalized construction: an almost complete
    intersection of type (d - d_1, d - d_2, d - d_3, b - d) whose resolution
    mixes the complete intersection Koszul degrees with the duals of the
    input ideal's resolution twisted by -b."""
    b = spec.b
    d = spec.d
    return BettiTable.from_twists(
        [
            [*(d - di for di in spec.ci_degrees), b - d],
            [*(b - di for di in spec.ci_degrees), d, *(b - e for e in spec.e2)],
            [b + d - spec.alpha, *(b - e for e in spec.e1)],
        ]
    )
