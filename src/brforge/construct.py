"""Randomized constructions: graded matrices, determinantal ideals,
pfaffians, kernel sections, and the full Gorenstein pipeline.

The pipeline draws a random graded matrix, checks the expected codimension
of its maximal minors, computes the kernel (first syzygies), combines the
kernel columns into a random section of prescribed degree (combine_columns,
which also decides, once, whether the section is regular: its vanishing
locus has the codimension of the kernel's rank), and extracts the
top-dimensional part, which is the arithmetically Gorenstein subscheme the
twist data predicts: one saturation by a linear form of the degeneracy locus
when that locus is linear (_top_part), else the double quotient of
ideals.top_dimensional_part.  verify_construction compares the resolution's
Betti table with the one the twist data predicts; both are chern.BettiTable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from .chern import BettiTable, ChernReport, TwistSpec, chern_coefficients, expected_resolution
from .hilbert import HilbertReport
from .ideals import ConstructionError, Ideal, linear_saturation, top_dimensional_part
from .poly import FreeModuleElement, Polynomial, PolyRing
from .protocol import note, recording
from .resolution import (
    GorensteinCertificate,
    GradedMatrix,
    free_resolution,
    gorenstein_certificate,
    regularity,
    syzygy_matrix,
)
from .ring import Rng

__all__ = [
    "ConstructionSpec",
    "SectionResult",
    "KernelSectionRun",
    "ConstructionReport",
    "random_graded_matrix",
    "construction_matrix",
    "minors_ideal",
    "pfaffian",
    "pfaffian_ideal",
    "check_expected_codim",
    "combine_columns",
    "section",
    "kernel_section_run",
    "verify_construction",
]


@dataclass(frozen=True)
class ConstructionSpec:
    """Parameters of a kernel-section construction: a t x (t+r) matrix with
    entries of degree entry_degree over P^n, sectioned in relative degree
    section_degree (the module twist of the section is
    section_degree + t*entry_degree)."""

    t: int
    r: int
    entry_degree: int
    section_degree: int
    n: int
    characteristic: int = 32003
    seed: int = 0

    def __post_init__(self):
        if self.t < 1 or self.r < 1 or self.entry_degree < 1 or self.section_degree < 0:
            raise ValueError(
                "t, r, entry_degree must be positive and section_degree nonnegative"
            )
        if self.r > self.n:
            raise ValueError("codimension exceeds ambient dimension")

    @property
    def section_twist(self) -> int:
        return self.section_degree + self.t * self.entry_degree

    def twist_data(self, section_twist: Optional[int] = None) -> TwistSpec:
        """Twist data of the kernel sheaf and of a section at module twist
        section_twist (default: the requested one)."""
        D = self.section_twist if section_twist is None else section_twist
        return TwistSpec(
            a=(D - self.entry_degree,) * (self.t + self.r), b=(D,) * self.t, n=self.n
        )


def random_graded_matrix(
    ring: PolyRing,
    row_twists: Sequence[int],
    col_twists: Sequence[int],
    rng: Rng,
) -> GradedMatrix:
    """Matrix with dense random homogeneous entries of the forced degrees,
    drawn row by row; impossible (negative-degree) positions stay zero."""
    grid = []
    for rt in row_twists:
        row = []
        for ct in col_twists:
            d = ct - rt
            if d < 0:
                row.append(ring.zero)
                continue
            f = ring.random_form(d, rng)
            while f.is_zero():
                f = ring.random_form(d, rng)
            row.append(f)
        grid.append(row)
    return GradedMatrix(ring, grid, row_twists, col_twists)


def construction_matrix(ring: PolyRing, spec: ConstructionSpec, rng: Rng) -> GradedMatrix:
    return random_graded_matrix(
        ring, (0,) * spec.t, (spec.entry_degree,) * (spec.t + spec.r), rng
    )


def minors_ideal(M: GradedMatrix, size: int) -> Ideal:
    """Ideal of all size x size minors (Laplace expansion, memoized)."""
    if size < 1 or size > min(M.rows, M.cols):
        raise ValueError(f"no {size}x{size} minors in a {M.rows}x{M.cols} matrix")
    ring = M.ring
    memo: dict[tuple[tuple[int, ...], tuple[int, ...]], Polynomial] = {}

    def det(rows: tuple[int, ...], cols: tuple[int, ...]) -> Polynomial:
        if len(rows) == 1:
            return M.entries[rows[0]][cols[0]]
        got = memo.get((rows, cols))
        if got is not None:
            return got
        acc = ring.zero
        r0 = rows[0]
        rest = rows[1:]
        for pos, c in enumerate(cols):
            e = M.entries[r0][c]
            if e.is_zero():
                continue
            sub = det(rest, cols[:pos] + cols[pos + 1 :])
            if sub.is_zero():
                continue
            term = e * sub
            acc = acc - term if pos % 2 else acc + term
        memo[(rows, cols)] = acc
        return acc

    gens = [
        det(rs, cs)
        for rs in combinations(range(M.rows), size)
        for cs in combinations(range(M.cols), size)
    ]
    note(f"{len(gens)} minors of size {size}")
    return Ideal(ring, gens)


def _check_skew(M: GradedMatrix) -> None:
    if M.rows != M.cols:
        raise ValueError("skew matrix must be square")
    for i in range(M.rows):
        if not M.entries[i][i].is_zero():
            raise ValueError("skew matrix needs a zero diagonal")
        for j in range(i + 1, M.cols):
            if M.entries[i][j] + M.entries[j][i] != M.ring.zero:
                raise ValueError(f"entries ({i},{j}) and ({j},{i}) are not opposite")


def pfaffian(M: GradedMatrix, indices: Optional[Sequence[int]] = None) -> Polynomial:
    """Pfaffian of the skew submatrix on the given (even-count) indices."""
    _check_skew(M)
    idx = tuple(range(M.rows)) if indices is None else tuple(indices)
    if len(idx) % 2:
        raise ValueError("pfaffian needs an even number of indices")
    ring = M.ring
    memo: dict[tuple[int, ...], Polynomial] = {}

    def pf(s: tuple[int, ...]) -> Polynomial:
        if not s:
            return ring.one
        got = memo.get(s)
        if got is not None:
            return got
        acc = ring.zero
        first = s[0]
        rest = s[1:]
        for pos, j in enumerate(rest):
            e = M.entries[first][j]
            if e.is_zero():
                continue
            sub = pf(rest[:pos] + rest[pos + 1 :])
            term = e * sub
            # expansion along the first row: alternating signs over positions
            acc = acc + term if pos % 2 == 0 else acc - term
        memo[s] = acc
        return acc

    return pf(idx)


def pfaffian_ideal(M: GradedMatrix) -> Ideal:
    """Ideal of maximal (size - 1) pfaffians of an odd skew matrix."""
    _check_skew(M)
    if M.rows % 2 == 0:
        raise ValueError("maximal pfaffians need odd size")
    all_idx = range(M.rows)
    gens = []
    for drop in all_idx:
        idx = tuple(i for i in all_idx if i != drop)
        gens.append(pfaffian(M, idx))
    note(f"{len(gens)} maximal pfaffians")
    return Ideal(M.ring, gens)


def check_expected_codim(M: GradedMatrix, t: int, r: int) -> bool:
    """True when the t x t minors cut codimension exactly r + 1 (the expected
    codimension of the degeneracy locus of a t x (t+r) matrix)."""
    with recording(None):
        I = minors_ideal(M, t)
    if I.is_zero():
        return False
    codim = I.codimension()
    note(f"maximal minors cut codimension {codim} (expected {r + 1})")
    return codim == r + 1


@dataclass(frozen=True)
class SectionResult:
    """A random section: the combined module element, its module twist, the
    drawn coefficient forms, the ideal of its entries (the transpose of the
    vector), and whether the section is regular: its entries cut the
    codimension of the kernel's rank."""

    vector: FreeModuleElement
    degree: int
    coefficients: tuple[Polynomial, ...]
    ideal: Ideal
    regular: bool


_DRAWS = 64


def combine_columns(M: GradedMatrix, degree: int, rng: Rng, r: int) -> SectionResult:
    """Random combination of the columns of M with sparse coefficient forms
    at the given uniform module twist; columns too large to contribute get
    zero coefficients (a sparse form of negative degree is zero and draws
    nothing), and when every column is too large the request is refused
    before any draw.  An all-zero draw is retried, up to _DRAWS draws in
    all: a sparse form of degree 0 is zero with probability 1/2, so a cap of
    five draws gave up about once in 32 runs.

    The section of a rank-r kernel is regular when its entries cut
    codimension exactly r; an empty locus (the unit ideal, of codimension
    nvars + 1) therefore reads as not regular."""
    if M.cols == 0:
        raise ConstructionError("no columns to combine")
    if min(M.col_twists) > degree:
        raise ConstructionError(
            f"no kernel column has twist at most {degree} (the smallest is {min(M.col_twists)})"
        )
    ring = M.ring
    for attempt in range(_DRAWS):
        coeffs = [ring.sparse_form(degree - ct, rng) for ct in M.col_twists]
        vec = M.apply_to(coeffs)
        if not vec.is_zero():
            note(f"section of degree {degree} on attempt {attempt + 1}")
            ideal = Ideal(ring, vec.entries)
            return SectionResult(
                vector=vec,
                degree=degree,
                coefficients=tuple(coeffs),
                ideal=ideal,
                regular=ideal.codimension() == r,
            )
    raise ConstructionError(f"sections of degree {degree} all vanished after {_DRAWS} draws")


def section(M: GradedMatrix, d: int, rng: Rng) -> SectionResult:
    """Random section of the kernel of M, at degree d above the smallest
    kernel twist.

    Computes the first syzygies B of M, combines their columns with sparse
    random coefficient forms into a homogeneous element, and returns it with
    the ideal of its entries; the kernel has rank cols - rows, so the
    section is regular when its locus has codimension cols - rows.
    """
    B = syzygy_matrix(M)
    if B.cols == 0:
        raise ConstructionError("the matrix has no kernel to section")
    r = M.cols - M.rows
    result = combine_columns(B, d + min(B.col_twists), rng, r)
    dim = result.ideal.hilbert().affine_dimension
    note(f"vanishing locus has affine dimension {dim} (regular means {M.ring.nvars - r})")
    return result


@dataclass(frozen=True)
class KernelSectionRun:
    """Everything produced along one construction run."""

    spec: ConstructionSpec
    matrix: GradedMatrix
    kernel: GradedMatrix
    section: SectionResult
    section_degree: int
    escalations: int
    gorenstein: Ideal

    def twist_data(self) -> TwistSpec:
        """Twist data of the section actually drawn, after any escalation;
        every prediction about this run is made from it."""
        return self.spec.twist_data(self.section_degree)


def _top_part(M: GradedMatrix, spec: ConstructionSpec, I: Ideal, rng: Rng) -> Ideal:
    """The top-dimensional part of the section ideal I, of codimension r.

    When the degeneracy locus D has a linear ideal (t = 1, entry degree 1:
    the maximal minors are the row's entries), it is I : h^infinity for h a
    combination of the row's entries (ideals.linear_saturation).  Off D the
    kernel sheaf is locally free of rank r, so there the section ideal is
    generated by r local coordinates of the section and, of codimension r,
    is a local complete intersection, hence unmixed.  Every associated
    prime of I that is not a top one therefore contains I_D, and with it h,
    so I : h^infinity is the intersection of the top components h does not
    vanish on.  It is the top part exactly when it has codimension r and
    the degree of I, which only the top components carry.  When a check
    fails (h vanishes on a top component, or h = 0), and for every other
    matrix, top_dimensional_part's double quotient runs, drawing from rng."""
    if spec.t == 1 and spec.entry_degree == 1:
        ring = M.ring
        draws = Rng(0)  # a fixed stream: the seeded one is left to the fallback
        h = ring.zero
        for e in M.entries[0]:
            h = h + ring.random_form(0, draws) * e
        J = linear_saturation(I, h)
        if (J.codimension(), J.hilbert().degree) == (spec.r, I.hilbert().degree):
            note("top part: saturated by a linear form of the degeneracy locus")
            return J
        note("top part: no saturation by a linear form of the degeneracy locus, cutting instead")
    return top_dimensional_part(I, spec.r, rng)


def kernel_section_run(
    ring: PolyRing,
    spec: ConstructionSpec,
    rng: Rng,
    *,
    matrix: Optional[GradedMatrix] = None,
) -> KernelSectionRun:
    if ring.n != spec.n:
        raise ValueError("ring and construction dimensions differ")
    if matrix is None:
        M = construction_matrix(ring, spec, rng)
        note(f"drew {spec.t}x{spec.t + spec.r} matrix with entries of degree {spec.entry_degree}")
    else:
        M = matrix
        if M.ring != ring or M.rows != spec.t or M.cols != spec.t + spec.r:
            raise ValueError("supplied matrix does not fit the construction data")
        degrees = {ct - rt for rt in M.row_twists for ct in M.col_twists}
        if degrees != {spec.entry_degree}:
            raise ValueError("supplied matrix entries have the wrong degree")
        note(f"using the supplied {M.rows}x{M.cols} matrix")
    if not check_expected_codim(M, spec.t, spec.r):
        raise ConstructionError(
            "maximal minors miss the expected codimension; rerun with a new seed"
        )
    B = syzygy_matrix(M)
    note(f"kernel has {B.cols} generators of degrees {sorted(set(B.col_twists))}")
    nvars = ring.nvars
    D = spec.section_twist
    last_error: Optional[str] = None
    for escalation in range(3):
        # several draws at the same degree before conceding it is too small:
        # escalating changes every predicted invariant, a redraw does not
        for _ in range(4):
            sec = combine_columns(B, D + escalation, rng, spec.r)
            if sec.regular:
                if escalation:
                    note(f"section degree escalated {escalation} time(s)")
                return KernelSectionRun(
                    spec=spec,
                    matrix=M,
                    kernel=B,
                    section=sec,
                    section_degree=sec.degree,
                    escalations=escalation,
                    gorenstein=_top_part(M, spec, sec.ideal, rng),
                )
            dim = sec.ideal.hilbert().affine_dimension
            last_error = (
                f"vanishing locus has affine dimension {dim},"
                f" expected {nvars - spec.r}"
            )
            note(f"section of degree {D + escalation} not regular: {last_error}")
    raise ConstructionError(f"no regular section found: {last_error}")


@dataclass(frozen=True)
class ConstructionReport:
    """Predicted against computed invariants of a constructed ideal."""

    chern: ChernReport
    shape: BettiTable
    hilbert: HilbertReport
    betti: BettiTable
    regularity: int
    certificate: GorensteinCertificate
    degree_matches: bool
    betti_matches: bool
    betti_embeds: bool

    @property
    def ok(self) -> bool:
        return (
            self.degree_matches
            and self.betti_embeds
            and self.certificate.arithmetically_gorenstein
        )

    def as_dict(self) -> dict:
        return {
            "predicted_degree": self.chern.expected_degree,
            "degree": self.hilbert.degree,
            "degree_matches": self.degree_matches,
            "h_vector": list(self.hilbert.second_series),
            "betti": self.betti.lines(),
            "predicted_betti": self.shape.lines(),
            "betti_matches": self.betti_matches,
            "betti_embeds": self.betti_embeds,
            "regularity": self.regularity,
            "gorenstein": self.certificate.arithmetically_gorenstein,
            "ok": self.ok,
        }


def verify_construction(I: Ideal, twists: TwistSpec) -> ConstructionReport:
    """Compare the constructed ideal's invariants against the predictions
    carried by the twist data alone (KernelSectionRun.twist_data for a
    constructed ideal)."""
    chern = chern_coefficients(twists)
    shape = expected_resolution(twists)
    rep = I.hilbert()
    res = free_resolution(I)
    betti = res.betti()
    cert = gorenstein_certificate(I, resolution=res)
    return ConstructionReport(
        chern=chern,
        shape=shape,
        hilbert=rep,
        betti=betti,
        regularity=regularity(res),
        certificate=cert,
        degree_matches=(rep.degree == chern.expected_degree),
        betti_matches=(betti == shape),
        betti_embeds=(shape.ghost_difference(betti.as_dict()) is not None),
    )
