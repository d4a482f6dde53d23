"""Per-layer tracing from outside the program.

The tracer wraps the public functions and methods of each brforge module.
A module-level function is replaced in every brforge module that holds it,
so a name imported with ``from .engine import tracked_syzygies`` is traced
wherever it is called; a method is replaced on its class.  Each wrapper
records a call count and a self time (its wall time minus the wall time of
the traced calls nested inside it), and some wrappers read a counter off
the value they return.  When the tracer is inactive a wrapper only passes
the call through.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Optional


# hooks: hook(tracer, parent_layer, args, kwargs, result)


def _after_complete(tr, parent, args, kwargs, result):
    gb = args[0]
    tr.add("engine.basis_elements", len(gb.elts))
    tr.add("engine.emitted", len(gb.emitted))
    if parent == "engine.tracked_syzygies":
        tr.add("engine.syzygy_basis", len(gb.elts))


def _after_tracked_syzygies(tr, parent, args, kwargs, result):
    tr.add("engine.syzygies_kept", len(result))


def _after_minimal_subset(tr, parent, args, kwargs, result):
    tr.add("engine.prune_offered", len(args[0]))
    tr.add("engine.prune_kept", len(result))


def _rank(res) -> int:
    return sum(len(t) for t in res.twists)


def _after_minimize(tr, parent, args, kwargs, result):
    tr.add("resolution.minimize.cancelled", _rank(args[0]) - _rank(result))


def _after_free_resolution(tr, parent, args, kwargs, result):
    tr.add("resolution.betti_total", _rank(result))


def _after_regular_run(tr, parent, args, kwargs, result):
    if result.section.regular:
        tr.add("construct.sections_used", 1)


def _after_module_intersection(tr, parent, args, kwargs, result):
    if parent == "liaison.common_section":
        tr.last_intersection = result


def _after_common_section(tr, parent, args, kwargs, result):
    if result.regular:
        tr.add("construct.sections_used", 1)
    D = tr.last_intersection
    d = args[2] if len(args) > 2 else kwargs["d"]
    if D is not None and result.degree == min(D.col_twists) + d:
        tr.add("liaison.sections_at_degree", 1)
    tr.last_intersection = None


CHERN_FUNCTIONS = (
    "chern_coefficients",
    "degree_formula_r3",
    "elementary_symmetric",
    "expected_resolution",
    "expected_resolution_r3",
    "expected_resolution_aci",
)

# (layer, module, function or Class.method, hook)
TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("poly.mul", "brforge.poly", "Polynomial.__mul__", None),
    ("poly.forms", "brforge.poly", "PolyRing.random_form", None),
    ("poly.forms", "brforge.poly", "PolyRing.sparse_form", None),
    ("engine.complete", "brforge.engine", "ModuleGB.complete", _after_complete),
    ("engine.complete", "brforge.engine", "ModuleGB.complete_to", _after_complete),
    ("engine.normal_form", "brforge.engine", "ModuleGB.normal_form", None),
    ("engine.tracked_syzygies", "brforge.engine", "tracked_syzygies", _after_tracked_syzygies),
    ("engine.minimal_generating_subset", "brforge.engine", "minimal_generating_subset",
     _after_minimal_subset),
    ("ideals.groebner", "brforge.ideals", "Ideal.groebner", None),
    ("ideals.contains", "brforge.ideals", "Ideal.contains", None),
    ("ideals.ideal_quotient", "brforge.ideals", "ideal_quotient", None),
    ("ideals.ideal_intersection", "brforge.ideals", "ideal_intersection", None),
    ("ideals.saturation", "brforge.ideals", "saturation", None),
    ("ideals.top_dimensional_part", "brforge.ideals", "top_dimensional_part", None),
    ("ideals.affine_dimension", "brforge.ideals", "affine_dimension", None),
    ("resolution.free_resolution", "brforge.resolution", "free_resolution", _after_free_resolution),
    ("resolution.syzygy_matrix", "brforge.resolution", "syzygy_matrix", None),
    ("resolution.minimize", "brforge.resolution", "Resolution.minimize", _after_minimize),
    ("resolution.gorenstein_certificate", "brforge.resolution", "gorenstein_certificate", None),
    ("hilbert.hilbert_report", "brforge.hilbert", "hilbert_report", None),
    ("hilbert.hilbert_numerator", "brforge.hilbert", "hilbert_numerator", None),
    *(("chern", "brforge.chern", name, None) for name in CHERN_FUNCTIONS),
    ("construct.kernel_section_run", "brforge.construct", "kernel_section_run", _after_regular_run),
    ("construct.verify_construction", "brforge.construct", "verify_construction", None),
    ("construct.minors_ideal", "brforge.construct", "minors_ideal", None),
    ("construct.combine_columns", "brforge.construct", "combine_columns", None),
    ("liaison.common_section", "brforge.liaison", "common_section", _after_common_section),
    ("liaison.module_intersection", "brforge.liaison", "module_intersection",
     _after_module_intersection),
    ("liaison.gorenstein_link", "brforge.liaison", "gorenstein_link", None),
    ("liaison.generalized_br_run", "brforge.liaison", "generalized_br_run", _after_regular_run),
    ("io.read", "brforge.io", "read_ideal", None),
    ("io.read", "brforge.io", "read_matrix", None),
    ("cli.main", "brforge.cli", "main", None),
)

TIMED_LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS if layer != "poly.forms"))

# every per-layer metric the traced run prints, with its unit
PER_LAYER_UNITS: dict[str, str] = {
    **{f"{layer}.calls": "count" for layer in TIMED_LAYERS},
    **{f"{layer}.self_s": "s" for layer in TIMED_LAYERS},
    "poly.forms.calls": "count",
    "engine.basis_elements": "count",
    "engine.emitted": "count",
    "engine.syzygy_yield": "ratio",
    "engine.prune_yield": "ratio",
    "resolution.minimize.cancelled": "count",
    "resolution.betti_total": "count",
    "construct.section_yield": "ratio",
    "liaison.section_yield": "ratio",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_s": "s",
}


class Tracer:
    """Call counts, self times and counters of the wrapped layers."""

    def __init__(self) -> None:
        self.active = False
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.last_intersection = None
        self._stack: list[list] = []  # [layer, time of nested traced calls]

    def add(self, name: str, value: int) -> None:
        if self.active:
            self.counts[name] += value

    def _wrap(self, layer: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                tracer.calls[layer] += 1
                tracer.self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook(tracer, parent, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in the brforge modules loaded now."""
        loaded = [
            mod for name, mod in list(sys.modules.items())
            if name == "brforge" or name.startswith("brforge.")
        ]
        for layer, module, attr, hook in TARGETS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(layer, cls.__dict__[meth], hook))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(layer, original, hook)
            for mod in loaded:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)

    def metrics(self, overhead_s: float) -> dict[str, float]:
        """Every per-layer metric, zero where a layer did not run."""
        out: dict[str, float] = {}
        for layer in TIMED_LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        c = self.counts
        out["poly.forms.calls"] = self.calls["poly.forms"]
        out["engine.basis_elements"] = c["engine.basis_elements"]
        out["engine.emitted"] = c["engine.emitted"]
        out["engine.syzygy_yield"] = _ratio(c["engine.syzygies_kept"], c["engine.syzygy_basis"])
        out["engine.prune_yield"] = _ratio(c["engine.prune_kept"], c["engine.prune_offered"])
        out["resolution.minimize.cancelled"] = c["resolution.minimize.cancelled"]
        out["resolution.betti_total"] = c["resolution.betti_total"]
        out["construct.section_yield"] = _ratio(
            c["construct.sections_used"], self.calls["construct.combine_columns"]
        )
        out["liaison.section_yield"] = _ratio(
            c["liaison.sections_at_degree"], self.calls["liaison.common_section"]
        )
        out["cli.stdout_bytes"] = c["cli.stdout_bytes"]
        out["trace.overhead_s"] = overhead_s
        assert set(out) == set(PER_LAYER_UNITS)
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
