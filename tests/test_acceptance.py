"""Acceptance gate: pinned end-to-end scenarios plus randomized property
suites.

Arithmetic is exact over GF(p), so every numeric comparison below is an
equality, and the wall-clock bounds are the generous budgets the scenarios
were sized for.  test_03 builds and resolves three projective-six
constructions in about 6 s in all (about 2 s per seed) on a 2-core
machine, the slowest test here; everything else finishes in seconds.
"""

import contextlib
import io
import time

from brforge.chern import TwistSpec, chern_coefficients, degree_formula_r3
from brforge.cli import main as cli_main
from brforge.construct import (
    ConstructionError,
    ConstructionSpec,
    kernel_section_run,
    pfaffian_ideal,
    verify_construction,
)
from brforge.engine import ModuleGB
from brforge.hilbert import hilbert_numerator, hilbert_report
from brforge.ideals import Ideal, poly_to_vec, saturation, top_dimensional_part
from brforge.io import read_ideal, read_matrix
from brforge.liaison import generalized_br_run, gorenstein_link
from brforge.poly import PolyRing
from brforge.resolution import free_resolution, gorenstein_certificate
from brforge.ring import Rng

import oracles
from conftest import fixture, random_ideal, random_monomial_ideal

P2 = PolyRing(32003, 2)
P3 = PolyRing(32003, 3)


# ------------------------------------------------------------ pinned runs


def test_01_saved_surface_section_saturates_to_pinned_ideal():
    t0 = time.monotonic()
    J = read_ideal(fixture("deg54_section.id"))
    listed = read_ideal(fixture("deg54_saturated.id"))
    assert len(listed.gens) == 3
    sat = saturation(J)
    assert sat.equals(listed)
    rep = hilbert_report(sat)
    assert rep.degree == 54
    assert rep.second_series == (1, 3, 6, 8, 9, 9, 8, 6, 3, 1)
    res = free_resolution(sat)
    assert res.betti().as_dict() == {
        (0, 3): 2, (0, 6): 1, (1, 6): 1, (1, 9): 2, (2, 12): 1,
    }
    assert gorenstein_certificate(sat, resolution=res).arithmetically_gorenstein
    assert time.monotonic() - t0 < 30.0


def test_02_unsaturated_section_ideal_h_vector():
    t0 = time.monotonic()
    J = read_ideal(fixture("deg54_section.id"))
    rep = hilbert_report(J)
    assert rep.second_series == (
        1, 3, 6, 10, 15, 21, 23, 21, 15, 7, -3, -15, -20, -18, -9, -3,
    )
    assert sum(rep.second_series) == 54
    assert time.monotonic() - t0 < 30.0


def test_03_linear_kernel_sections_on_p6():
    ring = PolyRing(32003, 6)
    for seed in (1, 2, 3):
        t0 = time.monotonic()
        spec = ConstructionSpec(1, 5, 1, 2, 6, seed=seed)
        run = kernel_section_run(ring, spec, Rng(seed))
        report = verify_construction(run.gorenstein, run.twist_data())
        assert report.hilbert.degree == 21, seed
        assert report.hilbert.second_series == (1, 5, 9, 5, 1), seed
        assert report.hilbert.codimension == 5, seed
        assert report.regularity == 5, seed
        assert report.betti_matches, seed
        assert time.monotonic() - t0 < 600.0, seed


def test_04_quadratic_kernel_section_char_23():
    ring = PolyRing(23, 6)
    spec = ConstructionSpec(1, 3, 2, 3, 6, seed=2)
    run = kernel_section_run(ring, spec, Rng(2))
    rep = hilbert_report(run.gorenstein)
    assert rep.degree == 13
    assert rep.second_series == (1, 3, 5, 3, 1)
    res = free_resolution(run.gorenstein)
    assert res.betti().as_dict() == {
        (0, 2): 1, (0, 3): 4, (1, 4): 4, (1, 5): 1, (2, 7): 1,
    }
    assert gorenstein_certificate(run.gorenstein, resolution=res).arithmetically_gorenstein


def test_05_chern_predictor_pinned_values():
    t0 = time.monotonic()
    six = chern_coefficients(TwistSpec((2,) * 6, (3,), 6))
    assert six.c1 == 9
    assert six.r == 5
    assert six.expected_degree == six.coefficients[5] == 21
    quartic = chern_coefficients(TwistSpec((3,) * 4, (5,), 6))
    assert quartic.c1 == 7
    assert quartic.expected_degree == quartic.coefficients[3] == 13
    assert degree_formula_r3([6] * 5, [9, 9]) == 54
    small = chern_coefficients(TwistSpec((2,) * 4, (3,), 3))
    assert small.expected_degree == small.coefficients[3] == 5
    assert time.monotonic() - t0 < 1.0


def test_06_degree_formula_matches_series_expansion():
    t0 = time.monotonic()
    rng = Rng(606)
    for _ in range(200):
        t = 1 + rng.below(4)
        a = tuple(1 + rng.below(9) for _ in range(t + 3))
        b = tuple(1 + rng.below(9) for _ in range(t))
        report = chern_coefficients(TwistSpec(a, b, 6))
        assert report.r == 3
        assert degree_formula_r3(a, b) == report.coefficients[3], (a, b)
    assert time.monotonic() - t0 < 10.0


def test_07_five_by_five_skew_pfaffians():
    M = read_matrix(fixture("skew5.mat"))
    P = pfaffian_ideal(M)
    rep = hilbert_report(P)
    assert rep.degree == 5
    assert rep.codimension == 3
    assert gorenstein_certificate(P).arithmetically_gorenstein
    z = M.ring.variables()
    listed = Ideal(M.ring, [
        z[1] ** 2, z[2] ** 2, z[1] * z[2] - z[3] ** 2, z[1] * z[3], z[2] * z[3],
    ])
    assert saturation(P).equals(saturation(listed))


def test_08_veronese_linked_through_linear_row_kernel():
    t0 = time.monotonic()
    phi = read_matrix(fixture("linear_row_p5.mat"))
    IV = read_ideal(fixture("veronese.id"))
    rec = gorenstein_link(phi, IV, 0, Rng(5))
    assert rec.section.regular
    assert rec.section_report.projective_dimension == 2
    assert rec.section_report.degree == 5
    assert rec.section_report.second_series == (1, 3, 2, -1)
    assert rec.gorenstein.equals(read_ideal(fixture("veronese_union_plane.id")))
    assert rec.residual.equals(read_ideal(fixture("plane_p5.id")))
    # five quadrics with a single degree-5 socle generator pin the series:
    # (1 - 5t^2 + 5t^3 - t^5)/(1 - t)^3 = 1 + 3t + t^2, so the h-vector is
    # (1, 3, 1); anything summing to less would contradict degree 5
    assert rec.gorenstein_report.second_series == (1, 3, 1)
    assert rec.gorenstein_report.degree == 5
    assert rec.betti.as_dict() == {(0, 2): 5, (1, 3): 5, (2, 5): 1}
    assert rec.certificate.arithmetically_gorenstein
    assert time.monotonic() - t0 < 120.0


def test_09_generalized_section_over_linked_base():
    rng = Rng(11)
    row = read_matrix(fixture("koszul_p3.mat"))
    base = kernel_section_run(
        P3, ConstructionSpec(1, 3, 1, 2, 3, seed=11), rng, matrix=row
    )
    IG = base.gorenstein
    assert IG.equals(read_ideal(fixture("points5.id")))
    assert free_resolution(IG).betti().as_dict() == {(0, 2): 5, (1, 3): 5, (2, 5): 1}
    run = generalized_br_run(IG, (3, 3, 3), 6, rng)
    assert run.linked_betti.as_dict() == {(0, 3): 3, (0, 4): 1, (1, 6): 8, (2, 7): 5}
    assert run.section.regular
    assert run.report.degree == 13
    assert run.betti.as_dict() == {(0, 2): 1, (0, 3): 3, (1, 5): 7, (2, 6): 4}
    assert oracles.step_dicts(run.shape) == [{2: 1, 3: 3}, {5: 8, 6: 1}, {5: 1, 6: 5}]
    # the raw shape carries exactly one R(-5) and one R(-6) ghost pair
    # between the middle and last steps
    assert run.ghost_cancellations == {(1, 5): 1, (1, 6): 1}
    assert run.shape_matches


# ------------------------------------------------------- property suites


def _strip(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def _euler_numerator(res):
    """1 - B0(t) + B1(t) - ... for a resolution of R/I, trailing zeros
    stripped."""
    top = max((d for tw in res.twists for d in tw), default=0)
    out = [0] * (top + 1)
    out[0] = 1
    for k, tw in enumerate(res.twists):
        for d in tw:
            out[d] += (-1) ** (k + 1)
    return _strip(out)


def _cli_capture(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


def test_10a_s_vectors_of_completed_bases_reduce_to_zero():
    pairs = 0
    for s in range(100):
        ring = P2 if s % 2 else P3
        I = random_ideal(ring, Rng(5000 + s), 2 + s % 2, 2)
        gb = ModuleGB(32003, (0,))
        for g in I.gens:
            gb.add(poly_to_vec(g))
        gb.complete()
        basis = gb.basis()
        for i in range(len(basis)):
            for j in range(i):
                svec = oracles.s_vector(basis[i], basis[j], 32003, ring.nvars)
                if svec is not None:
                    assert not gb.normal_form(svec), (s, i, j)
                    pairs += 1
    assert pairs >= 100


def test_10b_degree_equals_h_sum_and_difference_oracle():
    kept = 0
    seed = 0
    while kept < 100:
        assert seed < 150, "too many degenerate draws"
        ring = P2 if seed % 2 else P3
        I = random_monomial_ideal(ring, Rng(6000 + seed), 3, 3)
        seed += 1
        rep = hilbert_report(I)
        if rep.affine_dimension == 0:
            continue
        kept += 1
        assert sum(rep.second_series) == rep.degree
        hf = oracles.hilbert_function(I.gens, ring.nvars, 32003, 13)
        vals = hf[9:]
        for _ in range(rep.affine_dimension - 1):
            vals = [y - x for x, y in zip(vals, vals[1:])]
        # window must already sit in the polynomial range
        assert vals[-2] == vals[-1], seed
        assert vals[-1] == rep.degree, seed


def test_10c_saturation_and_top_part_idempotence():
    for s in range(100):
        ring = P2 if s % 2 else P3
        I = random_ideal(ring, Rng(7000 + s), 2, 2)
        sat = saturation(I)
        assert saturation(sat).equals(sat), s
        if s % 4 == 0 and sat.codimension() < ring.nvars:
            r = I.codimension()
            top = top_dimensional_part(I, r, Rng(71 + s))
            again = top_dimensional_part(top, r, Rng(72 + s))
            assert again.equals(top), s


def test_10d_minimization_preserves_euler_numerator():
    nonminimal = 0
    for s in range(100):
        ring = P2 if s % 2 else P3
        I = random_ideal(ring, Rng(9000 + s), 2, 2)
        J = Ideal(ring, list(I.gens) + [I.gens[0] * ring.variables()[0]])
        raw = free_resolution(J, minimize=False)
        if not raw.is_minimal():
            nonminimal += 1
        reduced = raw.minimize()
        want = _strip(hilbert_numerator([g.terms[0][0] for g in J.groebner()], ring.nvars))
        assert _euler_numerator(raw) == want, s
        assert _euler_numerator(reduced) == want, s
    # the padded generator must actually exercise the minimizer
    assert nonminimal == 100


def test_10e_successful_constructions_embed_in_predicted_shape():
    successes = 0
    for s in range(100, 220):
        spec = ConstructionSpec(1, 3, 1, 2, 3, seed=s)
        try:
            run = kernel_section_run(P3, spec, Rng(s))
        except ConstructionError:
            continue
        report = verify_construction(run.gorenstein, run.twist_data())
        assert report.betti_embeds, s
        successes += 1
    assert successes >= 100


def test_10f_identical_artifacts_for_identical_seeds():
    for s in range(50):
        spec = ConstructionSpec(1, 3, 1, 2, 3, seed=s)
        first = kernel_section_run(P3, spec, Rng(s))
        second = kernel_section_run(P3, spec, Rng(s))
        assert first.section_degree == second.section_degree, s
        assert [str(g) for g in first.gorenstein.gens] == [
            str(g) for g in second.gorenstein.gens
        ], s
    matrix_path = fixture("koszul_p3.mat")
    for s in range(50):
        argv = ["section", "--matrix", matrix_path, "--deg", "1", "--seed", str(s)]
        assert _cli_capture(argv) == _cli_capture(argv), s
