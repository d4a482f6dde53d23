"""Benchmark of brforge: one workload per process, or all four in turn.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --seed N --seconds S      # every workload, one child each

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run repeats whole rounds of the workload until the
next round would take the time spent inside timed operations past
``--seconds`` (at least one round; checks of the outputs run outside the
timed operations) and prints the end-to-end metrics.  With ``--trace 1`` it runs one round untraced and one
round with every layer wrapped, and prints the per-layer metrics of the
traced round plus ``trace.overhead_s``, the difference of the two rounds'
operation times.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from layers import PER_LAYER_UNITS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("ring", "poly", "engine", "ideals", "hilbert", "resolution", "chern",
           "construct", "liaison", "io", "cli")
SETUP_REPEATS = 11

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_min": "ops/min",
    "op_median_s": "s",
    "op_p95_s": "s",
    "peak_rss_mb": "MB",
}


def brforge_modules() -> SimpleNamespace:
    """The brforge modules by short name, imported if need be."""
    importlib.import_module("brforge")
    return SimpleNamespace(**{m: importlib.import_module(f"brforge.{m}") for m in MODULES})


def load_brforge() -> SimpleNamespace:
    """Import brforge afresh, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "brforge" or m.startswith("brforge.")]:
        del sys.modules[name]
    return brforge_modules()


class Tally:
    """Operation times and outcomes of one run."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.failed = 0
        self.problems: list[str] = []

    def run(self, op, tracer=None) -> float:
        if tracer is not None:
            tracer.active = True
        t0 = perf_counter()
        try:
            result = op.run()
        except Exception:  # an operation that raises is a failed operation
            elapsed = perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            self.times.append(elapsed)
            self.failed += 1
            return elapsed
        finally:
            if tracer is not None:
                tracer.active = False
        elapsed = perf_counter() - t0
        self.times.append(elapsed)
        failed, problems = op.check(result)
        self.failed += failed
        self.problems.extend(problems)
        return elapsed

    def round(self, ops, tracer=None) -> float:
        gc.collect()  # start each round from the same heap, free of the last round's garbage
        return sum(self.run(op, tracer) for op in ops)


def percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]  # nearest rank


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = WORKLOADS[name]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = perf_counter()
        bf = load_brforge()
        state = workload.prepare(bf, seed, ROOT)
        setup_times.append(perf_counter() - t0)

    tally = Tally()
    if traced:
        plain = tally.round(workload.round(bf, state, None))
        tracer = Tracer()
        tracer.install()
        tracer.active = True
        state = workload.prepare(bf, seed, ROOT)  # counts the reads of set-up
        tracer.active = False
        wrapped = tally.round(workload.round(bf, state, tracer), tracer)
        metrics = {k: (v, PER_LAYER_UNITS[k]) for k, v in tracer.metrics(wrapped - plain).items()}
        rounds = 2
    else:
        longest = 0.0
        rounds = 0
        while rounds == 0 or sum(tally.times) + longest <= seconds:
            longest = max(longest, tally.round(workload.round(bf, state, None)))
            rounds += 1
        times = tally.times
        done = len(times) - tally.failed
        values = {
            "setup_s": statistics.median(setup_times),
            "ops_per_min": 60.0 * done / sum(times),
            "op_median_s": statistics.median(times),
            "op_p95_s": percentile(times, 0.95) if workload.tail_percentile else max(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}

    for problem in tally.problems:
        print(f"{name}: WRONG: {problem}", file=sys.stderr)
    print(f"// {name}: seed {seed}, {rounds} round(s), {len(tally.times)} operations,"
          f" {tally.failed} failed")
    for key, (value, unit) in metrics.items():
        print(f"// {name}: {key} = {value:.6g} {unit}")
    return {
        "correct": not tally.problems,
        "attempted": len(tally.times),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process; prints their results and a summary."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print("\n".join(lines[:-1]))
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "brforge" / "__init__.py").is_file():
        print(f"bench: no brforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
