"""End-to-end run over a Gorenstein base: construct, link, section again.

Stage 1 builds a length-5 arithmetically Gorenstein base G in P^3 from a
section of the Koszul syzygy sheaf.  Stage 2 links G through a random
complete intersection of three cubics, sections the kernel of the linked
ideal's generator row at module twist 6, and checks the top-dimensional
part of the new zero locus against the predicted almost-complete-
intersection resolution shape, up to cancelling ghost pairs.  One Rng
drives both stages, like a single interactive session.  A few seconds.
"""

from pathlib import Path

from brforge.construct import ConstructionSpec, kernel_section_run
from brforge.io import read_matrix
from brforge.liaison import generalized_br_run
from brforge.poly import PolyRing
from brforge.ring import Rng

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

ring = PolyRing(32003, 3)
rng = Rng(11)
row = read_matrix(str(FIXTURES / "koszul_p3.mat"))

base = kernel_section_run(
    ring, ConstructionSpec(1, 3, 1, 2, 3, seed=11), rng, matrix=row
)
print(f"base G: degree-5 Gorenstein scheme, {len(base.gorenstein.gens)} generators")

run = generalized_br_run(base.gorenstein, (3, 3, 3), 6, rng)
print(f"base Betti: {run.base_betti.as_dict()}")
print(f"linked ideal V = (CI : G): Betti {run.linked_betti.as_dict()}")
print(f"twist parameter of the base: l = {run.spec.ell}")
print(f"section regular: {run.section.regular} at module twist {run.spec.d}")
print(f"top-dimensional part: degree {run.report.degree},"
      f" h-vector {run.report.second_series}")
print(f"computed Betti: {run.betti.as_dict()}")
print("predicted shape (before ghost cancellation):")
for line in run.shape.lines():
    print(f"  {line}")
print(f"ghost pairs removed: {run.ghost_cancellations}")
print(f"shape matches after cancellation: {run.shape_matches}")
print(f"generator degrees {run.spec.aci_type}: codim 3 with 4 generators,"
      f" an almost complete intersection")
