"""The four workloads: how each draws its inputs from the seed, what one
round of operations is, and how each operation's output is checked.

Workload code reaches brforge only through ``bf``, a namespace of the
brforge modules loaded for this set-up, so the traced run sees the wrapped
functions and a fresh import is really used.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import checks

P = 32003


@dataclass(frozen=True)
class Op:
    """One timed call and the check of its result.  ``check`` returns
    (failed, problems): a failed operation is counted, a problem is an
    output that is wrong."""

    run: Callable[[], Any]
    check: Callable[[Any], tuple[bool, list[str]]]


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable  # (bf, seed, root) -> state
    round: Callable  # (bf, state, tracer) -> list[Op]
    # percentile over the run's operations when they are all of one kind;
    # on mixed rounds a percentile would hop between kinds, so the slowest
    # operation is reported instead
    tail_percentile: bool = False


def _ok(problems: list[str]) -> tuple[bool, list[str]]:
    return False, problems


def _construction_check(bf, spec, run) -> list[str]:
    rep = bf.hilbert.hilbert_report(run.gorenstein)
    return checks.construction_problems(
        bf,
        t=spec.t, r=spec.r, entry_degree=spec.entry_degree, n=spec.n,
        twist=run.section_degree,
        escalations=run.escalations,
        degree=rep.degree,
        h_vector=rep.second_series,
        codimension=rep.codimension,
        section_in_result=run.gorenstein.contains_ideal(run.section.ideal),
    )


# ------------------------------------------------------------ kernel_sections
# The paper's flagship: t=1, r=5, linear entries, section degree 2 in P^6.
# The matrix is drawn from the seed.  The section and top-part draws always
# use KERNEL_DRAW_SEED: other draws change how sparse the random forms are,
# which moves one construction's time by up to 25%, and a run holds only one.

KERNEL_DRAW_SEED = 1


def _kernel_prepare(bf, seed, root):
    ring = bf.poly.PolyRing(P, 6)
    spec = bf.construct.ConstructionSpec(1, 5, 1, 2, 6, seed=seed)
    matrix = bf.construct.construction_matrix(ring, spec, bf.ring.Rng(seed))
    return SimpleNamespace(ring=ring, spec=spec, matrix=matrix)


def _kernel_round(bf, st, tracer):
    def run():
        return bf.construct.kernel_section_run(
            st.ring, st.spec, bf.ring.Rng(KERNEL_DRAW_SEED), matrix=st.matrix
        )

    return [Op(run, lambda result: _ok(_construction_check(bf, st.spec, result)))]


# ------------------------------------------------------------------ resolve
# A generic complete intersection of five quadrics in P^6: five resolution
# stages with Koszul ranks 5, 10, 10, 5, 1.  One resolution of about 26 s
# averages the machine's speed swings the way one kernel section does;
# shorter resolutions spread by 25-30% between runs.

RESOLVE_QUADRICS = 5


def _resolve_prepare(bf, seed, root):
    ring = bf.poly.PolyRing(P, 6)
    rng = bf.ring.Rng(seed)
    quadrics = []
    while len(quadrics) < RESOLVE_QUADRICS:
        f = ring.random_form(2, rng)
        if not f.is_zero():
            quadrics.append(f)
    return SimpleNamespace(ring=ring, gens=tuple(quadrics))


def _resolve_round(bf, st, tracer):
    def run(I=bf.ideals.Ideal(st.ring, st.gens)):
        # what `forge res --minimal` computes
        res = bf.resolution.free_resolution(I)
        cert = bf.resolution.gorenstein_certificate(I, resolution=res)
        return res, cert, bf.hilbert.hilbert_report(I)

    def check(result):
        res, cert, rep = result
        return _ok(checks.resolution_problems(
            res.betti().as_dict(), checks.koszul_betti([2] * RESOLVE_QUADRICS),
            rep.first_series, cert.arithmetically_gorenstein,
        ))

    return [Op(run, check)]


# ---------------------------------------------------------------- p3_screen
# Many small `forge br --verify` calls over a contiguous range of seeds.

P3_SEEDS = 600  # command seeds 1..600, screened: none fails or escalates
P3_BLOCK = 25  # command seeds per round
P3_ARGV = ["br", "--t", "1", "--r", "3", "--entry-deg", "1", "--sec-deg", "2", "--n", "3"]


def _p3_prepare(bf, seed, root):
    st = SimpleNamespace(block=seed % (P3_SEEDS // P3_BLOCK), runs=[])

    # keeps each run the command constructs, for the section it does not print
    def keep_run(*args, **kwargs):
        run = bf.construct.kernel_section_run(*args, **kwargs)
        st.runs.append(run)
        return run

    bf.cli.kernel_section_run = keep_run
    return st


def _p3_round(bf, st, tracer):
    first = 1 + (st.block * P3_BLOCK) % P3_SEEDS
    st.block += 1
    ops = []
    for s in range(first, first + P3_BLOCK):
        argv = P3_ARGV + ["--seed", str(s), "--verify"]

        def run(argv=argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = bf.cli.main(argv)
            out = buf.getvalue()
            if tracer is not None:
                tracer.add("cli.stdout_bytes", len(out.encode()))
            return code, out, st.runs.pop()

        ops.append(Op(run, lambda result, s=s: _ok(_p3_check(bf, s, *result))))
    return ops


def _p3_check(bf, s, code, out, run) -> list[str]:
    if code != 0:
        return [f"seed {s}: exit code {code}"]
    summary = json.loads(out.splitlines()[-1])
    problems = checks.construction_problems(
        bf,
        t=1, r=3, entry_degree=1, n=3,
        twist=summary["section_twist"],
        escalations=summary["escalations"],
        degree=summary["degree"],
        h_vector=summary["h_vector"],
        codimension=summary["codimension"],
        section_in_result=run.gorenstein.contains_ideal(run.section.ideal),
        betti=checks.betti_of_lines(summary["verification"]["betti"]),
    )
    if [run.gorenstein.ring.format(g) for g in run.gorenstein.gens] != summary["generators"]:
        problems.append("the command printed other generators than it constructed")
    if not summary["verification"]["gorenstein"]:
        problems.append("the command did not certify the result Gorenstein")
    return [f"seed {s}: {p}" for p in problems]


# ------------------------------------------------------------------ liaison

SECTION_SEEDS = range(1, 61)  # (a); 18 and 53 escalate, the same in every run
# (b) draws from seeds 1..200 whose common section lands at the requested
# degree; the others take about 94 s per link (a degree-20 scheme)
ESCALATING = {18, 53, 84, 106, 113, 120, 131, 150, 171}
LINK_SEEDS = tuple(s for s in range(1, 201) if s not in ESCALATING)
GENBR_SEED = 1  # (c); the run time varies by 40% between seeds
CI_DEGREES = (3, 3, 3)
GENBR_D = 6


def _liaison_prepare(bf, seed, root):
    fixtures = Path(root) / "fixtures"
    phi = bf.io.read_matrix(fixtures / "linear_row_p5.mat")
    IV = bf.io.read_ideal(fixtures / "veronese.id")
    # entries of a section lie in I_V and sit in columns of twist 1, so the
    # lowest module twist is 1 + 2; the kernel attains it
    requested = min(phi.col_twists) + min(g.degree() for g in IV.gens)
    return SimpleNamespace(
        phi=phi,
        IV=IV,
        points=bf.io.read_ideal(fixtures / "points5.id"),
        deg54=bf.io.read_ideal(fixtures / "deg54_section.id"),
        requested=requested,
        link_seed=LINK_SEEDS[seed % len(LINK_SEEDS)],
    )


def _liaison_round(bf, st, tracer):
    Ideal = bf.ideals.Ideal
    Rng = bf.ring.Rng

    def fresh(I):  # no Groebner basis cached from an earlier operation
        return Ideal(I.ring, I.gens)

    def check_section(sec):
        return sec.degree != st.requested, checks.section_problems(st.phi, st.IV, sec)

    ops = []
    for s in SECTION_SEEDS:

        def section(IV=fresh(st.IV), s=s):
            return bf.liaison.common_section(st.phi, IV, 0, Rng(s))

        ops.append(Op(section, check_section))

    def link(IV=fresh(st.IV)):
        return bf.liaison.gorenstein_link(st.phi, IV, 0, Rng(st.link_seed))

    def check_link(rec):
        return rec.section.degree != st.requested, checks.link_problems(
            bf, st.IV, rec.gorenstein, rec.residual, rec.betti.as_dict(), rec.certificate
        )

    def generalized(IG=fresh(st.points)):
        return bf.liaison.generalized_br_run(IG, CI_DEGREES, GENBR_D, Rng(GENBR_SEED))

    def saturate(J=fresh(st.deg54)):
        return bf.ideals.saturation(J)

    ops.append(Op(link, check_link))
    ops.append(Op(generalized, lambda run: _ok(
        checks.generalized_problems(bf, fresh(st.points), CI_DEGREES, GENBR_D, run))))
    ops.append(Op(saturate, lambda sat: _ok(checks.saturation_problems(bf, st.deg54, sat))))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("kernel_sections", _kernel_prepare, _kernel_round),
        Workload("resolve", _resolve_prepare, _resolve_round),
        Workload("p3_screen", _p3_prepare, _p3_round, tail_percentile=True),
        Workload("liaison", _liaison_prepare, _liaison_round),
    )
}
