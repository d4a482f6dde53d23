"""Plain-text file formats for ideals and graded matrices.

Ideal files:
    ring 32003 3
    z1^2 - z0*z2
    z2^3 + 5*z0*z1*z3
Blank lines and '#' comments are skipped; the header fixes the coefficient
characteristic and the largest variable index n (variables z0..zn).

Matrix files add dimension and twist headers; entries are written row by
row, separated by ' | ':
    ring 32003 3
    matrix 2 3
    rowtwists 0 0
    coltwists 1 1 1
    z0 | z1 | z2
    z1 | z2 | z3
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from .ideals import Ideal
from .poly import PolyRing
from .resolution import GradedMatrix

__all__ = [
    "read_ideal",
    "write_ideal",
    "ideal_text",
    "read_matrix",
    "write_matrix",
    "matrix_text",
]


def _content_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _parse_ring(line: str, want: Optional[PolyRing]) -> PolyRing:
    parts = line.split()
    if len(parts) != 3 or parts[0] != "ring":
        raise ValueError(f"expected 'ring <p> <n>', got {line!r}")
    ring = PolyRing(int(parts[1]), int(parts[2]))
    if want is not None and want != ring:
        raise ValueError(f"file ring {ring!r} does not match the requested {want!r}")
    return ring


def read_ideal(path: str | Path, ring: Optional[PolyRing] = None) -> Ideal:
    lines = _content_lines(Path(path).read_text())
    if not lines:
        raise ValueError("empty ideal file")
    ring = _parse_ring(lines[0], ring)
    return Ideal(ring, [ring.parse(line) for line in lines[1:]])


def ideal_text(I: Ideal) -> str:
    lines = [f"ring {I.ring.p} {I.ring.n}"]
    lines.extend(str(g) for g in I.gens)
    return "\n".join(lines) + "\n"


def write_ideal(path: str | Path, I: Ideal) -> None:
    Path(path).write_text(ideal_text(I))


def read_matrix(path: str | Path, ring: Optional[PolyRing] = None) -> GradedMatrix:
    lines = _content_lines(Path(path).read_text())
    if len(lines) < 4:
        raise ValueError("matrix file needs ring, matrix, rowtwists, coltwists lines")
    ring = _parse_ring(lines[0], ring)
    mparts = lines[1].split()
    if len(mparts) != 3 or mparts[0] != "matrix":
        raise ValueError(f"expected 'matrix <rows> <cols>', got {lines[1]!r}")
    rows, cols = int(mparts[1]), int(mparts[2])
    rparts = lines[2].split()
    cparts = lines[3].split()
    if rparts[0] != "rowtwists" or len(rparts) != rows + 1:
        raise ValueError(f"expected 'rowtwists' with {rows} values")
    if cparts[0] != "coltwists" or len(cparts) != cols + 1:
        raise ValueError(f"expected 'coltwists' with {cols} values")
    row_twists = [int(x) for x in rparts[1:]]
    col_twists = [int(x) for x in cparts[1:]]
    if len(lines) != 4 + rows:
        raise ValueError(f"expected {rows} entry rows, found {len(lines) - 4}")
    grid = []
    for line in lines[4:]:
        cells = [c.strip() for c in line.split("|")]
        if len(cells) != cols:
            raise ValueError(f"row has {len(cells)} entries, expected {cols}")
        grid.append([ring.parse(c) for c in cells])
    return GradedMatrix(ring, grid, row_twists, col_twists)


def matrix_text(M: GradedMatrix) -> str:
    lines = [
        f"ring {M.ring.p} {M.ring.n}",
        f"matrix {M.rows} {M.cols}",
        "rowtwists " + " ".join(str(t) for t in M.row_twists),
        "coltwists " + " ".join(str(t) for t in M.col_twists),
    ]
    for i in range(M.rows):
        lines.append(" | ".join(str(M.entries[i][j]) for j in range(M.cols)))
    return "\n".join(lines) + "\n"


def write_matrix(path: str | Path, M: GradedMatrix) -> None:
    Path(path).write_text(matrix_text(M))
