"""Graded matrices, syzygies, free resolutions, and Betti data.

Resolutions and kernels are built by the engine's stage passes
(engine.stage_passes; see engine for the passes and the Hilbert-driven
pruning): the generator pass takes every generator of the ideal as a
column, and the pass of each later stage, in the Schreyer order the stage
before induced, prunes the raw relations of the stage before to a minimal
generating set.  The resolution of a minimally generated ideal therefore
comes out minimal, and minimize() covers the general case by resolving a
minimal generating subset of the generators.  A resolution's Betti table
is a chern.BettiTable, the type the predicted shapes come in too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .chern import BettiTable
from .engine import Vec, minimal_generating_subset, stage_passes, tracked_syzygies, vec_degree
from .ideals import Ideal, InvariantError, poly_to_vec, vec_to_poly
from .poly import FreeModuleElement, Polynomial, PolyRing
from .protocol import note, recording
from .ring import key_component

__all__ = [
    "GradedMatrix",
    "Resolution",
    "syzygy_matrix",
    "free_resolution",
    "regularity",
    "GorensteinCertificate",
    "gorenstein_certificate",
]


class GradedMatrix:
    """Matrix over a PolyRing between graded free modules.

    row_twists/col_twists are generator degrees: the module of columns is
    (+) R(-col_twists[j]) mapping into (+) R(-row_twists[i]), and every entry
    (i, j) is zero or homogeneous of degree col_twists[j] - row_twists[i].
    """

    __slots__ = ("ring", "entries", "row_twists", "col_twists")

    def __init__(
        self,
        ring: PolyRing,
        entries: Sequence[Sequence[Polynomial]],
        row_twists: Sequence[int],
        col_twists: Sequence[int],
    ):
        self.ring = ring
        self.entries = tuple(tuple(row) for row in entries)
        self.row_twists = tuple(row_twists)
        self.col_twists = tuple(col_twists)
        if len(self.entries) != len(self.row_twists):
            raise ValueError("row count does not match row twists")
        for i, row in enumerate(self.entries):
            if len(row) != len(self.col_twists):
                raise ValueError("column count does not match column twists")
            for j, e in enumerate(row):
                if e.is_zero():
                    continue
                hom, d = e.is_homogeneous()
                want = self.col_twists[j] - self.row_twists[i]
                if not hom or d != want:
                    raise ValueError(
                        f"entry ({i},{j}) must be homogeneous of degree {want}, got {e}"
                    )

    @property
    def rows(self) -> int:
        return len(self.row_twists)

    @property
    def cols(self) -> int:
        return len(self.col_twists)

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def column_vec(self, j: int) -> Vec:
        out: Vec = {}
        for i in range(self.rows):
            out.update(poly_to_vec(self.entries[i][j], i))
        return out

    def columns(self) -> list[Vec]:
        return [self.column_vec(j) for j in range(self.cols)]

    @classmethod
    def from_columns(
        cls,
        ring: PolyRing,
        row_twists: Sequence[int],
        columns: Sequence[Vec],
        col_twists: Sequence[int],
    ) -> "GradedMatrix":
        rows = len(row_twists)
        grid = [[ring.zero] * len(columns) for _ in range(rows)]
        for j, col in enumerate(columns):
            per_row: dict[int, Vec] = {}
            for t, c in col.items():
                comp = key_component(t)
                per_row.setdefault(comp, {})[t + comp] = c
            for comp, v in per_row.items():
                grid[comp][j] = vec_to_poly(ring, v)
        return cls(ring, grid, row_twists, col_twists)

    def apply_to(self, coefficients: Sequence[Polynomial]) -> FreeModuleElement:
        """Image of the column vector of coefficient forms."""
        if len(coefficients) != self.cols:
            raise ValueError("coefficient count mismatch")
        ring = self.ring
        out = []
        for i in range(self.rows):
            acc = ring.zero
            for j, f in enumerate(coefficients):
                if not f.is_zero() and not self.entries[i][j].is_zero():
                    acc = acc + self.entries[i][j] * f
            out.append(acc)
        return FreeModuleElement(ring, out, self.row_twists)

    def __repr__(self) -> str:
        return f"GradedMatrix({self.rows}x{self.cols} over {self.ring!r})"


class Resolution:
    """Chain of graded matrices resolving an ideal.

    generators: images of the F_0 basis.
    twists[k]: generator degrees of F_k.  matrices[k]: the map F_{k+1} -> F_k.
    """

    __slots__ = ("ring", "generators", "twists", "matrices")

    def __init__(
        self,
        ring: PolyRing,
        generators: Sequence[Polynomial],
        twists: Sequence[Sequence[int]],
        matrices: Sequence[GradedMatrix],
    ):
        self.ring = ring
        self.generators = tuple(generators)
        self.twists = [tuple(t) for t in twists]
        self.matrices = list(matrices)
        if len(self.matrices) != len(self.twists) - 1:
            raise ValueError("matrix count must be one less than module count")

    @property
    def length(self) -> int:
        return len(self.twists) - 1

    def betti(self) -> BettiTable:
        return BettiTable.from_twists(self.twists)

    def is_minimal(self) -> bool:
        for M in self.matrices:
            for i in range(M.rows):
                for j in range(M.cols):
                    if not M.entries[i][j].is_zero() and M.col_twists[j] == M.row_twists[i]:
                        return False
        return True

    def describe(self) -> str:
        steps: list[list[str]] = [[] for _ in self.twists]
        for (k, d), r in self.betti().data:
            steps[k].append(f"R(-{d})" if r == 1 else f"{r}R(-{d})")
        chain = " <- ".join(" + ".join(parts) or "0" for parts in steps)
        return f"R <- {chain} <- 0"

    def minimize(self) -> "Resolution":
        """The minimal resolution of the ideal the generators span.

        Each stage pass keeps a minimal generating set of its syzygy
        module, so every matrix after the first is minimal, and the first
        is when the generators are: a unit entry in column j, row i of
        the first matrix is a relation with a constant coefficient on
        generator i, which then lies in the span of the others.  So the
        unit pairs are one per redundant generator, and resolving a
        minimal generating subset of the generators (in index order)
        cancels them all.  A resolution that is already minimal is
        returned as it is."""
        if self.is_minimal():
            return self
        ring = self.ring
        gens = self.generators
        vecs = [poly_to_vec(g) for g in gens]
        kept = sorted(minimal_generating_subset(vecs, ring.p, (0,)))
        with recording(None):
            res = free_resolution(Ideal(ring, [gens[i] for i in kept]), minimize=False)
        note(f"minimization cancelled {len(gens) - len(kept)} unit pairs")
        if not res.is_minimal():
            raise InvariantError("unit entries survived minimization")
        return res


def syzygy_matrix(M: GradedMatrix) -> GradedMatrix:
    """Minimal generators of the column syzygies, as a graded matrix."""
    ring = M.ring
    syz = tracked_syzygies(M.columns(), ring.p, M.row_twists, ring.nvars)
    degs = [vec_degree(s, M.col_twists) for s in syz]
    return GradedMatrix.from_columns(ring, M.col_twists, syz, degs)


def free_resolution(I: Ideal, *, minimize: bool = True) -> Resolution:
    """Stepwise free resolution of the ideal's generators, one tracked pass
    per stage (engine.stage_passes).

    The first pass takes every generator as a column.  The pass of each
    later stage works in the Schreyer order the stage before induced and
    does two jobs: it prunes the raw relations of the stage before to a
    minimal generating set, keeping a relation when it is not in the span
    of those kept so far, and it emits the relations among the kept ones,
    already framed for the next pass.  With minimally generated input the
    result is already minimal; minimize=True resolves a minimal generating
    subset instead when it is not (see Resolution.minimize).

    The generator pass completes a Groebner basis of I; when I has none
    cached yet, its reduced basis becomes I's.
    """
    ring = I.ring
    gens = list(I.gens)
    if not gens:
        raise ValueError("resolution of the zero ideal")

    def keep_basis(basis: list[Vec]) -> None:
        # the reduced basis is unique, so it is I's
        I._gb = tuple(vec_to_poly(ring, v) for v in basis)

    columns = [poly_to_vec(g) for g in gens]
    passes = stage_passes(columns, ring.p, (0,), ring.nvars, keep_basis if I._gb is None else None)
    twists = [[vec_degree(col, (0,)) for col in columns]]
    matrices: list[GradedMatrix] = []
    for syz in passes:
        degs = [vec_degree(s, twists[-1]) for s in syz]
        matrices.append(GradedMatrix.from_columns(ring, tuple(twists[-1]), syz, degs))
        twists.append(degs)
        note(f"stage {len(matrices)}: {len(degs)} syzygies, degrees {sorted(set(degs))}")
        if len(matrices) > ring.nvars + 1:
            raise InvariantError("resolution exceeded the global bound")
    res = Resolution(ring, gens, twists, matrices)
    if minimize:
        res = res.minimize()
    return res


def regularity(res: Resolution) -> int:
    """Castelnuovo-Mumford regularity read off a minimal resolution."""
    if not res.is_minimal():
        raise ValueError("regularity needs a minimal resolution")
    return max(max(t) - k for k, t in enumerate(res.twists) if t)


@dataclass(frozen=True)
class GorensteinCertificate:
    codimension: int
    resolution_length: int
    cohen_macaulay: bool
    last_rank: int
    h_vector: tuple[int, ...]
    h_symmetric: bool

    @property
    def arithmetically_gorenstein(self) -> bool:
        return self.cohen_macaulay and self.last_rank == 1 and self.h_symmetric

    def as_dict(self) -> dict:
        return {
            "codimension": self.codimension,
            "resolution_length": self.resolution_length,
            "cohen_macaulay": self.cohen_macaulay,
            "last_rank": self.last_rank,
            "h_vector": list(self.h_vector),
            "h_symmetric": self.h_symmetric,
            "arithmetically_gorenstein": self.arithmetically_gorenstein,
        }


def gorenstein_certificate(
    I: Ideal, *, resolution: Optional[Resolution] = None
) -> GorensteinCertificate:
    """Certificate for the arithmetically Gorenstein property of a saturated
    homogeneous ideal: Cohen-Macaulay (resolution length = codim - 1, since
    the ideal rather than the quotient is resolved), last module of rank one,
    and a symmetric h-vector.  The unit ideal, whose quotient is zero, has
    none (ValueError)."""
    report = I.hilbert()
    if report.affine_dimension < 0:
        raise ValueError("the unit ideal has no Gorenstein certificate")
    codim = report.codimension
    res = resolution if resolution is not None else free_resolution(I)
    res = res.minimize()
    length = res.length
    last_rank = len(res.twists[-1])
    h = report.second_series
    return GorensteinCertificate(
        codimension=codim,
        resolution_length=length,
        cohen_macaulay=(length == codim - 1),
        last_rank=last_rank,
        h_vector=h,
        h_symmetric=(h == h[::-1]),
    )
