"""Gorenstein liaison: sections through a fixed subscheme and residuals.

The linking pipeline picks a section of a kernel module that vanishes on a
given subscheme V (by intersecting the kernel with I_V times the ambient
free module), extracts the top-dimensional part X of its vanishing locus,
certifies X arithmetically Gorenstein, and computes the residual (I_X : I_V).
The generalized pipeline does the same over a codimension-3 arithmetically
Gorenstein base: link it to V by a random complete intersection, resolve,
and section the kernel of V's minimal generator row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .chern import BettiTable, GenBRSpec, expected_resolution_aci
from .engine import ModuleGB, minimal_generating_subset, tracked_intersection, vec_degree
from .hilbert import HilbertReport
from .ideals import (
    ConstructionError,
    Ideal,
    InvariantError,
    draw_regular_sequence,
    ideal_quotient,
    poly_to_vec,
    saturation,
    top_dimensional_part,
)
from .resolution import (
    GorensteinCertificate,
    GradedMatrix,
    free_resolution,
    gorenstein_certificate,
    syzygy_matrix,
)
from .construct import SectionResult, combine_columns
from .protocol import note
from .ring import Rng

__all__ = [
    "module_intersection",
    "common_section",
    "LinkRecord",
    "gorenstein_link",
    "GenBRRun",
    "generalized_br_run",
]


def module_intersection(B: GradedMatrix, C: GradedMatrix) -> GradedMatrix:
    """Generators of (column span of B) meet (column span of C), as columns.

    Both bases are completed separately, then a tracked intersection pass
    over them yields the intersection, pruned to minimal generators, which
    come in ascending degree.
    """
    if B.ring != C.ring or B.row_twists != C.row_twists:
        raise ValueError("modules live in different ambient frames")
    ring = B.ring
    p = ring.p
    twists = B.row_twists

    def completed(M: GradedMatrix) -> list:
        gb = ModuleGB(p, twists)
        for col in M.columns():
            if col:
                gb.add(col)
        gb.complete()
        return gb.basis()

    basis_b = completed(B)
    basis_c = completed(C)
    if not basis_b or not basis_c:
        return GradedMatrix.from_columns(ring, twists, [], [])
    vals = tracked_intersection(basis_b, basis_c, p, twists)
    note(f"module intersection emitted {len(vals)} candidates")
    cols = [vals[i] for i in minimal_generating_subset(vals, p, twists)]
    return GradedMatrix.from_columns(ring, twists, cols, [vec_degree(v, twists) for v in cols])


def common_section(phi: GradedMatrix, IV: Ideal, d: int, rng: Rng) -> SectionResult:
    """A random section of the kernel of phi whose entries vanish on V.

    Intersects the kernel with I_V times the ambient free module and
    combines columns in degree d above the smallest available.  A column
    sits at that smallest twist, so a nonzero section exists there.
    """
    ring = phi.ring
    B = syzygy_matrix(phi)
    if B.cols == 0:
        raise ConstructionError("the matrix has no kernel to section")
    cvecs = []
    cdegs = []
    for g in IV.gens:
        for comp, tw in enumerate(phi.col_twists):
            cvecs.append(poly_to_vec(g, comp))
            cdegs.append(g.degree() + tw)
    C = GradedMatrix.from_columns(ring, phi.col_twists, cvecs, cdegs)
    D = module_intersection(B, C)
    if D.cols == 0:
        raise ConstructionError("kernel meets the subscheme module only in zero")
    note(f"common sections exist from degree {min(D.col_twists)}")
    sec = combine_columns(D, min(D.col_twists) + d, rng, phi.cols - phi.rows)
    for e in sec.vector.entries:
        if not IV.contains(e):
            raise InvariantError("section entry escaped the subscheme ideal")
    return sec


@dataclass(frozen=True)
class LinkRecord:
    """Artifacts of one Gorenstein link through a fixed subscheme."""

    section: SectionResult
    section_saturated: Ideal
    section_report: HilbertReport
    gorenstein: Ideal
    gorenstein_report: HilbertReport
    betti: BettiTable
    certificate: GorensteinCertificate
    residual: Ideal
    residual_report: HilbertReport


def gorenstein_link(phi: GradedMatrix, IV: Ideal, d: int, rng: Rng) -> LinkRecord:
    """Link V: section the kernel of phi through V, certify the section's
    top-dimensional part arithmetically Gorenstein, and return the residual."""
    codim = IV.codimension()
    sec = common_section(phi, IV, d, rng)
    sat = saturation(sec.ideal)
    X = top_dimensional_part(sat, codim, rng)
    if not IV.contains_ideal(X):
        raise InvariantError("the linking scheme does not contain V")
    res = free_resolution(X)
    cert = gorenstein_certificate(X, resolution=res)
    residual = ideal_quotient(X, IV)
    note(f"residual has {len(residual.gens)} generators")
    return LinkRecord(
        section=sec,
        section_saturated=sat,
        section_report=sat.hilbert(),
        gorenstein=X,
        gorenstein_report=X.hilbert(),
        betti=res.betti(),
        certificate=cert,
        residual=residual,
        residual_report=residual.hilbert(),
    )


@dataclass(frozen=True)
class GenBRRun:
    """Artifacts of the generalized construction over a codimension-3
    arithmetically Gorenstein base."""

    base_certificate: GorensteinCertificate
    base_betti: BettiTable
    ci: Ideal
    linked: Ideal
    linked_betti: BettiTable
    section: SectionResult
    section_top: Ideal
    report: HilbertReport
    betti: BettiTable
    spec: GenBRSpec
    shape: BettiTable
    ghost_cancellations: Optional[dict]

    @property
    def shape_matches(self) -> bool:
        return self.ghost_cancellations is not None


def generalized_br_run(IG: Ideal, ci_degrees: Sequence[int], d: int, rng: Rng) -> GenBRRun:
    """Generalized kernel-section run over a codimension-3 arithmetically
    Gorenstein ideal: link by a random complete intersection of the given
    degrees, section the kernel of the linked ideal's generator row at
    module twist d, and compare against the predicted
    almost-complete-intersection resolution shape (matching up to
    cancelling adjacent ghost pairs)."""
    ring = IG.ring
    if len(ci_degrees) != 3:
        raise ValueError("exactly three complete intersection degrees required")
    if ring.n != 3:
        note(f"ambient dimension {ring.n}: shape predictions only verified for n = 3")
    res_g = free_resolution(IG)
    cert_g = gorenstein_certificate(IG, resolution=res_g)
    if not cert_g.arithmetically_gorenstein or cert_g.codimension != 3:
        raise ConstructionError("base ideal is not codimension-3 arithmetically Gorenstein")
    e1 = res_g.twists[0]
    e2 = res_g.twists[1]
    last_degree = res_g.twists[2][0]
    ell = ring.n + 1 - last_degree
    ci = _random_complete_intersection(IG, ci_degrees, rng)
    linked = ideal_quotient(ci, IG)
    res_v = free_resolution(linked)
    note(f"linked ideal has {len(linked.gens)} minimal generators")
    B = res_v.matrices[0]
    spec = GenBRSpec(
        e1=tuple(e1),
        e2=tuple(e2),
        ci_degrees=tuple(ci_degrees),
        ell=ell,
        d=d,
        n=ring.n,
    )
    sec: Optional[SectionResult] = None
    for _ in range(5):
        cand = combine_columns(B, d, rng, 3)
        if cand.regular:
            sec = cand
            break
        note("section not regular, redrawing")
    if sec is None:
        raise ConstructionError("no regular section of the kernel in the target degree")
    top = top_dimensional_part(sec.ideal, 3, rng)
    res_x = free_resolution(top)
    betti = res_x.betti()
    gen_degrees = tuple(sorted(res_x.twists[0]))
    if gen_degrees != spec.aci_type:
        raise InvariantError(
            f"not an almost complete intersection of type {spec.aci_type}:"
            f" generators sit in degrees {gen_degrees}"
        )
    shape = expected_resolution_aci(spec)
    ghosts = shape.ghost_difference(betti.as_dict())
    if ghosts is None:
        note("computed resolution does NOT fit the predicted shape")
    elif ghosts:
        note(f"predicted shape matches after cancelling {sum(ghosts.values())} ghost pair(s)")
    else:
        note("predicted shape matches exactly")
    return GenBRRun(
        base_certificate=cert_g,
        base_betti=res_g.betti(),
        ci=ci,
        linked=linked,
        linked_betti=res_v.betti(),
        section=sec,
        section_top=top,
        report=top.hilbert(),
        betti=betti,
        spec=spec,
        shape=shape,
        ghost_cancellations=ghosts,
    )


def _random_complete_intersection(IG: Ideal, degrees: Sequence[int], rng: Rng) -> Ideal:
    drawn = draw_regular_sequence(IG, degrees, rng, 20)
    if drawn is None:
        raise ConstructionError(
            f"no complete intersection of type {tuple(degrees)} found in 20 draws"
        )
    ci, attempt = drawn
    note(f"complete intersection of type {tuple(degrees)} on attempt {attempt}")
    return ci
