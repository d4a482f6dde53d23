"""Command line front end.

Every subcommand prints an optional protocol of '//'-prefixed progress
lines (--protocol), then any session-style text blocks, and always ends
with a single-line JSON summary on stdout.  Randomized subcommands require
--seed and reproduce byte-identical output for identical flags and seed.

A subcommand only computes: it returns its exit code, its summary and the
objects it names for --out DIR.  One emitter, _finish, adds the command
and seed to the summary, writes the named objects in the plain-text
formats of the io module and summary.json under DIR, and prints the JSON
line.

Exit codes: 0 on success, 2 on mathematical failure (codimension or
regularity checks that a new seed may fix), 1 on usage errors, 3 when an
internal invariant breaks (a fault of the program).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .chern import (
    GenBRSpec,
    TwistSpec,
    chern_coefficients,
    expected_resolution,
    expected_resolution_aci,
)
from .construct import (
    ConstructionSpec,
    kernel_section_run,
    minors_ideal,
    pfaffian_ideal,
    section,
    verify_construction,
)
from .hilbert import HilbertReport
from .ideals import ConstructionError, Ideal, InvariantError, top_dimensional_part
from .io import read_ideal, read_matrix, write_ideal, write_matrix
from .liaison import generalized_br_run, gorenstein_link
from .poly import PolyRing
from .protocol import note, recording
from .resolution import free_resolution, gorenstein_certificate, regularity
from .ring import Rng

__all__ = ["main"]

DEFAULT_CHAR = 32003

# what a subcommand returns: its exit code, its summary without command and
# seed, and the objects --out writes, by file name
Result = tuple[int, dict, dict]


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; usage problems must be 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _default_char() -> int:
    raw = os.environ.get("FORGE_CHAR", "")
    if not raw:
        return DEFAULT_CHAR
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"FORGE_CHAR must be an integer, got {raw!r}") from exc


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from exc


def _print_note(msg: str) -> None:
    print(f"// {msg}")


def _seeded(args) -> Rng:
    # printed after the input is parsed, so a refused input prints nothing
    print(f"// seed = {args.seed}")
    return Rng(args.seed)


def _finish(args, out: Path | None, code: int, summary: dict, files: dict) -> int:
    """Emit one command's result: write its named objects and summary.json
    under --out, print the JSON line, and return the exit code."""
    summary = dict(summary, command=args.command)
    if "seed" in args:
        summary["seed"] = args.seed
    if out is not None:
        for name, obj in files.items():
            (write_ideal if isinstance(obj, Ideal) else write_matrix)(out / name, obj)
        (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(json.dumps(summary, sort_keys=True))
    return code


def _degree_counts(degrees) -> list[list[int]]:
    counts: dict[int, int] = {}
    for d in degrees:
        counts[d] = counts.get(d, 0) + 1
    return [[d, counts[d]] for d in sorted(counts)]


def _print_hilbert_blocks(rep: HilbertReport) -> None:
    for k, c in enumerate(rep.first_series):
        if c:
            print(f"// {c:9d} t^{k}")
    print("//")
    for k, c in enumerate(rep.second_series):
        print(f"// {c:9d} t^{k}")
    print("//")
    print(f"// codimension = {rep.codimension}")
    print(f"// dimension   = {rep.affine_dimension}")
    print(f"// degree      = {rep.degree}")


def _gens_strings(I: Ideal) -> list[str]:
    return [I.ring.format(g) for g in I.gens]


# ---------------------------------------------------------------- br


def _cmd_br(args) -> Result:
    matrix = None
    if args.matrix is not None:
        matrix = read_matrix(args.matrix)
        ring = matrix.ring
        degrees = {ct - rt for rt in matrix.row_twists for ct in matrix.col_twists}
        if len(degrees) != 1:
            raise ValueError("matrix entries must have a single uniform degree")
        entry_degree = degrees.pop()
        t, r, n, char = matrix.rows, matrix.cols - matrix.rows, ring.n, ring.p
        for flag, val, derived in (
            ("--t", args.t, t),
            ("--r", args.r, r),
            ("--entry-deg", args.entry_deg, entry_degree),
            ("--n", args.n, n),
            ("--char", args.char, char),
        ):
            if val is not None and val != derived:
                raise ValueError(f"{flag} {val} contradicts the supplied matrix ({derived})")
    else:
        missing = [
            flag
            for flag, val in (("--t", args.t), ("--r", args.r), ("--entry-deg", args.entry_deg), ("--n", args.n))
            if val is None
        ]
        if missing:
            raise ValueError(f"missing {', '.join(missing)} (or supply --matrix)")
        t, r, entry_degree, n = args.t, args.r, args.entry_deg, args.n
        char = args.char if args.char is not None else _default_char()
        ring = PolyRing(char, n)
    spec = ConstructionSpec(
        t=t,
        r=r,
        entry_degree=entry_degree,
        section_degree=args.sec_deg,
        n=n,
        seed=args.seed,
    )
    run = kernel_section_run(ring, spec, _seeded(args), matrix=matrix)
    rep = run.gorenstein.hilbert()
    twists = run.twist_data()
    chern = chern_coefficients(twists)
    _print_hilbert_blocks(rep)
    summary = {
        "characteristic": char,
        "n": n,
        "t": t,
        "r": r,
        "entry_degree": entry_degree,
        "section_degree": args.sec_deg,
        "section_twist": run.section_degree,
        "escalations": run.escalations,
        "predicted_degree": chern.expected_degree,
        "degree": rep.degree,
        "degree_matches": rep.degree == chern.expected_degree,
        "h_vector": list(rep.second_series),
        "codimension": rep.codimension,
        "dimension": rep.affine_dimension,
        "generator_degrees": _degree_counts(g.degree() for g in run.gorenstein.gens),
        "generators": _gens_strings(run.gorenstein),
    }
    if args.verify:
        report = verify_construction(run.gorenstein, twists)
        summary["verification"] = report.as_dict()
    return 0, summary, {
        "matrix.mat": run.matrix,
        "kernel.mat": run.kernel,
        "section.id": run.section.ideal,
        "top.id": run.gorenstein,
    }


# ---------------------------------------------------------------- section


def _cmd_section(args) -> Result:
    M = read_matrix(args.matrix)
    sec = section(M, args.deg, _seeded(args))
    summary = {
        "characteristic": M.ring.p,
        "n": M.ring.n,
        "degree": sec.degree,
        "regular": sec.regular,
        "entry_degrees": _degree_counts(e.degree() for e in sec.vector.entries if not e.is_zero()),
        "generators": _gens_strings(sec.ideal),
    }
    return (0 if sec.regular else 2), summary, {"section.id": sec.ideal}


# ---------------------------------------------------------------- top


def _cmd_top(args) -> Result:
    I = read_ideal(args.ideal)
    rng = _seeded(args)
    codim = args.codim if args.codim is not None else I.codimension()
    note(f"isolating the top-dimensional part in codimension {codim}")
    top = top_dimensional_part(I, codim, rng)
    rep = top.hilbert()
    _print_hilbert_blocks(rep)
    summary = {
        "codimension": codim,
        "degree": rep.degree,
        "h_vector": list(rep.second_series),
        "generator_degrees": _degree_counts(g.degree() for g in top.gens),
        "generators": _gens_strings(top),
    }
    return 0, summary, {"top.id": top}


# ---------------------------------------------------------------- hilb


def _cmd_hilb(args) -> Result:
    rep = read_ideal(args.ideal).hilbert()
    _print_hilbert_blocks(rep)
    return 0, rep.as_dict(), {}


# ---------------------------------------------------------------- res


def _cmd_res(args) -> Result:
    I = read_ideal(args.ideal)
    res = free_resolution(I, minimize=args.minimal)
    description, betti, minimal = res.describe(), res.betti().lines(), res.is_minimal()
    print(f"// {description}")
    for line in betti:
        print(f"// {line}")
    summary = {
        "minimal": minimal,
        "length": res.length,
        "betti": betti,
        "description": description,
    }
    if minimal:
        summary["regularity"] = regularity(res)
        if I.hilbert().affine_dimension >= 0:  # the unit ideal has no certificate
            cert = gorenstein_certificate(I, resolution=res)
            summary["gorenstein"] = cert.as_dict()
    return 0, summary, {}


# ---------------------------------------------------------------- minors / pfaffians


def _cmd_minors(args) -> Result:
    I = minors_ideal(read_matrix(args.matrix), args.size)
    summary = {
        "size": args.size,
        "count": len(I.gens),
        "generator_degrees": _degree_counts(g.degree() for g in I.gens),
        "generators": _gens_strings(I),
    }
    return 0, summary, {"minors.id": I}


def _cmd_pfaffians(args) -> Result:
    I = pfaffian_ideal(read_matrix(args.matrix))
    summary = {
        "count": len(I.gens),
        "generator_degrees": _degree_counts(g.degree() for g in I.gens),
        "generators": _gens_strings(I),
    }
    return 0, summary, {"pfaffians.id": I}


# ---------------------------------------------------------------- predict


_LIST_KEYS = ("a", "b", "p", "e1", "e2", "ci")


def _parse_predict_config(text: str) -> dict:
    stripped = text.strip()
    if stripped.startswith("{"):
        data = json.loads(stripped)
    else:
        data = {}
        for raw in stripped.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, val = line.partition("=")
            if not eq:
                raise ValueError(f"expected key = value, got {line!r}")
            data[key.strip()] = val.strip()
    # list keys become int lists, every other key one int; a comma string
    # is a list in either syntax
    norm: dict = {}
    for key, val in data.items():
        if isinstance(val, str):
            items = [part for part in val.split(",") if part.strip()]
        elif isinstance(val, list) or key not in _LIST_KEYS:
            items = val if isinstance(val, list) else [val]
        else:
            raise ValueError(f"{key} must be a list of integers, got {val!r}")
        # strings are parsed; JSON numbers must already be integers, so 3.9
        # and true are refused rather than read as 3 and 1
        error = f"{key} must hold integers, got {val!r}"
        if not all(isinstance(x, str) or type(x) is int for x in items):
            raise ValueError(error)
        try:
            ints = [int(x) for x in items]
        except ValueError:
            raise ValueError(error) from None
        if key in _LIST_KEYS:
            norm[key] = ints
        elif len(ints) == 1:
            norm[key] = ints[0]
        else:
            raise ValueError(f"{key} must be one integer, got {val!r}")
    return norm


def _require(cfg: dict, *keys: str) -> None:
    missing = [key for key in keys if key not in cfg]
    if missing:
        raise ValueError(f"config is missing {', '.join(missing)}")


def _cmd_predict(args) -> Result:
    cfg = _parse_predict_config(Path(args.spec).read_text())
    if "a" in cfg and "b" in cfg:
        _require(cfg, "n")
        spec = TwistSpec(
            a=tuple(cfg["a"]),
            b=tuple(cfg["b"]),
            n=cfg["n"],
            p=tuple(cfg.get("p", [0])),
        )
        chern = chern_coefficients(spec)
        shape = expected_resolution(spec)
        print(f"// c = {' '.join(str(c) for c in chern.coefficients)}")
        print(f"// c1 = {chern.c1}")
        print(f"// expected degree = c_{chern.r} = {chern.expected_degree}")
        summary = {
            "kind": "kernel",
            "a": list(spec.a),
            "b": list(spec.b),
            "p": list(spec.p),
            "n": spec.n,
            "r": spec.r,
            "coefficients": list(chern.coefficients),
            "c1": chern.c1,
            "expected_degree": chern.expected_degree,
        }
    elif "e1" in cfg and "e2" in cfg:
        _require(cfg, "ci", "l", "d")
        spec = GenBRSpec(
            e1=tuple(cfg["e1"]),
            e2=tuple(cfg["e2"]),
            ci_degrees=tuple(cfg["ci"]),
            ell=cfg["l"],
            d=cfg["d"],
            n=cfg.get("n", 3),
        )
        shape = expected_resolution_aci(spec)
        print(f"// b = {spec.b}")
        summary = {
            "kind": "aci",
            "e1": list(spec.e1),
            "e2": list(spec.e2),
            "ci": list(spec.ci_degrees),
            "l": spec.ell,
            "d": spec.d,
            "n": spec.n,
            "alpha": spec.alpha,
            "b": spec.b,
        }
    else:
        raise ValueError("config needs either a/b/n twists or e1/e2/ci/l/d data")
    summary["shape"] = shape.lines()
    print("// expected resolution (step degree rank):")
    for line in summary["shape"]:
        print(f"// {line}")
    return 0, summary, {}


# ---------------------------------------------------------------- link


def _cmd_link(args) -> Result:
    phi = read_matrix(args.phi)
    IV = read_ideal(args.ideal, ring=phi.ring)
    rec = gorenstein_link(phi, IV, args.deg, _seeded(args))
    print(f"// h(section) = {list(rec.section_report.second_series)}")
    print(f"// h(X) = {list(rec.gorenstein_report.second_series)}")
    print(f"// residual generators: {len(rec.residual.gens)}")
    summary = {
        "characteristic": phi.ring.p,
        "n": phi.ring.n,
        "degree_offset": args.deg,
        "section_twist": rec.section.degree,
        "section_regular": rec.section.regular,
        "section_h": list(rec.section_report.second_series),
        "section_degree": rec.section_report.degree,
        "section_dimension": rec.section_report.affine_dimension,
        "gorenstein_h": list(rec.gorenstein_report.second_series),
        "gorenstein_degree": rec.gorenstein_report.degree,
        "gorenstein_betti": rec.betti.lines(),
        "certificate": rec.certificate.as_dict(),
        "residual_generators": _gens_strings(rec.residual),
        "residual_h": list(rec.residual_report.second_series),
    }
    return 0, summary, {
        "section.id": rec.section_saturated,
        "gorenstein.id": rec.gorenstein,
        "residual.id": rec.residual,
    }


# ---------------------------------------------------------------- genbr


def _cmd_genbr(args) -> Result:
    IG = read_ideal(args.gorenstein)
    if len(args.ci) != 3:
        raise ValueError("--ci needs exactly three degrees")
    run = generalized_br_run(IG, tuple(args.ci), args.d, _seeded(args))
    if args.l is not None and run.spec.ell != args.l:
        raise ConstructionError(f"the base resolution gives l = {run.spec.ell}, not {args.l}")
    rep = run.report
    _print_hilbert_blocks(rep)
    summary = {
        "characteristic": IG.ring.p,
        "n": IG.ring.n,
        "ci": list(run.spec.ci_degrees),
        "l": run.spec.ell,
        "d": run.spec.d,
        "alpha": run.spec.alpha,
        "b": run.spec.b,
        "aci_type": list(run.spec.aci_type),
        "degree": rep.degree,
        "h_vector": list(rep.second_series),
        "betti": run.betti.lines(),
        "expected_shape": run.shape.lines(),
        "shape_matches": run.shape_matches,
        "ghost_pairs": sorted(
            [step, degree, count]
            for (step, degree), count in (run.ghost_cancellations or {}).items()
        ),
        "generators": _gens_strings(run.section_top),
    }
    return (0 if run.shape_matches else 2), summary, {
        "ci.id": run.ci,
        "linked.id": run.linked,
        "section.id": run.section.ideal,
        "top.id": run.section_top,
    }


# ---------------------------------------------------------------- parser


@functools.cache
def _build_parser() -> _Parser:
    """The forge parser, built once per process: parsing leaves it as it
    was, and the FORGE_CHAR default is read when a command runs."""
    parser = _Parser(prog="forge", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, seeded=True):
        if seeded:
            p.add_argument("--seed", type=int, required=True, help="random seed (required)")
        p.add_argument("--protocol", action="store_true", help="print '//' progress lines")
        p.add_argument("--out", help="directory for intermediate objects")

    p = sub.add_parser("br", help="random kernel section and its top-dimensional part")
    p.add_argument("--t", type=int, help="matrix rows")
    p.add_argument("--r", type=int, help="kernel rank (matrix has t+r columns)")
    p.add_argument("--entry-deg", type=int, help="uniform entry degree")
    p.add_argument("--sec-deg", type=int, required=True, help="section degree above t*entry_deg")
    p.add_argument("--n", type=int, help="ambient projective dimension")
    p.add_argument("--char", type=int, help="field characteristic (default FORGE_CHAR or 32003)")
    p.add_argument("--matrix", help="use this matrix file instead of a random draw")
    p.add_argument("--verify", action="store_true", help="resolve and compare against predictions")
    common(p)
    p.set_defaults(fn=_cmd_br)

    p = sub.add_parser("section", help="random section of the kernel of a matrix")
    p.add_argument("--matrix", required=True, help="matrix file")
    p.add_argument("--deg", type=int, required=True, help="degree above the smallest kernel twist")
    common(p)
    p.set_defaults(fn=_cmd_section)

    p = sub.add_parser("top", help="top-dimensional part of a vanishing locus")
    p.add_argument("--ideal", required=True, help="ideal file")
    p.add_argument("--codim", type=int, help="codimension of the part to keep (default: the ideal's)")
    common(p)
    p.set_defaults(fn=_cmd_top)

    p = sub.add_parser("hilb", help="Hilbert series, h-vector, degree")
    p.add_argument("--ideal", required=True, help="ideal file")
    common(p, seeded=False)
    p.set_defaults(fn=_cmd_hilb)

    p = sub.add_parser("res", help="free resolution and Betti table")
    p.add_argument("--ideal", required=True, help="ideal file")
    p.add_argument("--minimal", action="store_true", help="minimize the resolution")
    common(p, seeded=False)
    p.set_defaults(fn=_cmd_res)

    p = sub.add_parser("minors", help="ideal of k x k minors")
    p.add_argument("--matrix", required=True, help="matrix file")
    p.add_argument("--size", type=int, required=True, help="minor size k")
    common(p, seeded=False)
    p.set_defaults(fn=_cmd_minors)

    p = sub.add_parser("pfaffians", help="maximal pfaffians of an odd skew matrix")
    p.add_argument("--matrix", required=True, help="matrix file")
    common(p, seeded=False)
    p.set_defaults(fn=_cmd_pfaffians)

    p = sub.add_parser("predict", help="expected degree and resolution shape from twist data")
    p.add_argument("--spec", required=True, help="config file (key = value lines or JSON)")
    common(p, seeded=False)
    p.set_defaults(fn=_cmd_predict)

    p = sub.add_parser("link", help="Gorenstein link through a fixed subscheme")
    p.add_argument("--phi", required=True, help="matrix file")
    p.add_argument("--ideal", required=True, help="ideal file of the subscheme to link")
    p.add_argument("--deg", type=int, required=True, help="coefficient degree above the smallest twist")
    common(p)
    p.set_defaults(fn=_cmd_link)

    p = sub.add_parser("genbr", help="kernel section over a codimension-3 Gorenstein base")
    p.add_argument("--gorenstein", required=True, help="ideal file of the Gorenstein base")
    p.add_argument("--ci", type=_int_list, required=True, help="complete intersection degrees d1,d2,d3")
    p.add_argument("--l", type=int, help="expected twist parameter of the base (checked)")
    p.add_argument("--d", type=int, required=True, help="module twist of the section")
    common(p)
    p.set_defaults(fn=_cmd_genbr)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        out = None if args.out is None else Path(args.out)
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
        with recording(_print_note if args.protocol else None):
            return _finish(args, out, *args.fn(args))
    except ConstructionError as exc:
        print(f"forge {args.command}: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"forge {args.command}: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"forge {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
