"""The benchmark's checkers must reject wrong answers.

    python3 -m pytest bench
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
from run import brforge_modules  # noqa: E402

bf = brforge_modules()
FIXTURES = HERE.parent / "fixtures"


def _construction(ring, spec, seed):
    run = bf.construct.kernel_section_run(ring, spec, bf.ring.Rng(seed))
    rep = bf.hilbert.hilbert_report(run.gorenstein)
    return rep, checks.construction_problems(
        bf,
        t=spec.t, r=spec.r, entry_degree=spec.entry_degree, n=spec.n,
        twist=run.section_degree,
        escalations=run.escalations,
        degree=rep.degree,
        h_vector=rep.second_series,
        codimension=rep.codimension,
        section_in_result=run.gorenstein.contains_ideal(run.section.ideal),
    )


def test_odd_rank_construction_passes():
    rep, problems = _construction(
        bf.poly.PolyRing(32003, 3), bf.construct.ConstructionSpec(1, 3, 1, 2, 3), 11
    )
    assert rep.second_series == (1, 3, 1)
    assert problems == []


def test_even_rank_construction_is_not_gorenstein():
    # the theorem needs odd rank: r = 4 gives h = (1, 4, 5, 1)
    rep, problems = _construction(
        bf.poly.PolyRing(32003, 4), bf.construct.ConstructionSpec(1, 4, 1, 2, 4), 1
    )
    assert rep.second_series == (1, 4, 5, 1)
    assert any("not symmetric" in p for p in problems)


def _resolved_complete_intersection():
    ring = bf.poly.PolyRing(32003, 3)
    rng = bf.ring.Rng(7)
    I = bf.ideals.Ideal(ring, [ring.random_form(2, rng) for _ in range(3)])
    res = bf.resolution.free_resolution(I)
    cert = bf.resolution.gorenstein_certificate(I, resolution=res)
    rep = bf.hilbert.hilbert_report(I)
    return res.betti().as_dict(), rep.first_series, cert.arithmetically_gorenstein


def test_closed_form_betti_table_passes():
    betti, series, gorenstein = _resolved_complete_intersection()
    assert checks.resolution_problems(betti, checks.koszul_betti([2, 2, 2]), series, gorenstein) == []


def test_betti_table_with_one_rank_changed_fails():
    betti, series, gorenstein = _resolved_complete_intersection()
    for key in betti:
        wrong = dict(betti)
        wrong[key] += 1
        assert checks.resolution_problems(wrong, checks.koszul_betti([2, 2, 2]), series, gorenstein)


def _link():
    phi = bf.io.read_matrix(FIXTURES / "linear_row_p5.mat")
    IV = bf.io.read_ideal(FIXTURES / "veronese.id")
    rec = bf.liaison.gorenstein_link(phi, IV, 0, bf.ring.Rng(5))
    return IV, rec


def test_link_passes():
    IV, rec = _link()
    assert checks.link_problems(
        bf, IV, rec.gorenstein, rec.residual, rec.betti.as_dict(), rec.certificate
    ) == []


def test_link_with_swapped_residual_fails():
    IV, rec = _link()
    for swapped in (IV, rec.section_saturated):
        assert checks.link_problems(
            bf, IV, rec.gorenstein, swapped, rec.betti.as_dict(), rec.certificate
        )


def test_series_helpers():
    points = {(0, 2): 5, (1, 3): 5, (2, 5): 1}
    assert checks.h_vector_of(points, 3) == (1, 3, 1)
    assert checks.is_self_dual(points, 3)
    assert not checks.is_self_dual({(0, 2): 5, (1, 3): 4, (2, 5): 1}, 3)
    assert checks.h_vector_of({(0, 2): 1}, 2) is None
