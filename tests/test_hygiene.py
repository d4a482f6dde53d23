"""Source hygiene, by AST scans of src/brforge/*.py.

Every name a module imports is used in it (the package __init__ re-exports
by design and is skipped).  A name counts as used when the module reads it,
names it in a quoted annotation, or lists it in __all__.

Every import of a module sits at its top level, so the import graph is the
one the module headers show and a lazy import cannot hide a cycle (the
package __init__, which imports the command line on demand, is skipped).

Progress goes through the protocol channel (brforge.protocol): no function
takes a `log` callback, and only the command line module prints.

No module imports an underscore name from another brforge module: what
one module keeps private, another does not reach into.

chern, the integer layer of predictions and Betti tables, imports no
brforge module, so it stays a leaf of the import graph that resolution and
the constructions import from.

No module holds an assert statement: `python -O` strips them, so a broken
invariant raises InvariantError instead.

Monomials stay packed keys: only poly, which prints polynomials and hands
out exponent dicts, imports ring.key_exponents or calls PolyRing.exponents
to decode them.

Only the command line module reads the environment (os.environ,
os.getenv), so no engine switch can hide in an environment variable.

Only ring, which defines the Rng, and poly, whose PolyRing.random_form and
sparse_form draw every random form, call an Rng's below, bit or next64, so
the draw protocol of a seeded run is the one those two methods document.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "brforge"
SOURCES = sorted(SRC.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def _imported(tree: ast.Module) -> dict[str, int]:
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {e.value for e in node.value.elts}
    return set()


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used | _exported(tree)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used(tree)
    return sorted(
        f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_import():
    source = (
        "from typing import Optional, Sequence\n"
        "def f(x: 'Sequence'):\n"
        "    '''Optional'''\n"
    )
    assert unused_imports(source) == ["Optional (line 1)"]
    assert unused_imports("import os\n__all__ = ['os']\n") == []


def nested_imports(source: str) -> list[str]:
    faults = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            faults.extend(
                f"import (line {inner.lineno})"
                for inner in ast.walk(node)
                if isinstance(inner, (ast.Import, ast.ImportFrom))
            )
    return sorted(set(faults))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_at_module_level(path):
    assert nested_imports(path.read_text()) == []


def test_scan_flags_nested_imports():
    source = (
        "import os\n"
        "if os:\n"
        "    from typing import Optional\n"
        "def f():\n"
        "    import sys\n"
        "    def g():\n"
        "        from math import pi\n"
    )
    assert nested_imports(source) == ["import (line 5)", "import (line 7)"]


def channel_faults(source: str, may_print: bool) -> list[str]:
    faults = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg):
                if arg is not None and arg.arg == "log":
                    faults.append(f"parameter log (line {node.lineno})")
        elif (
            not may_print
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            faults.append(f"print (line {node.lineno})")
    return faults


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_progress_goes_through_the_channel(path):
    assert channel_faults(path.read_text(), may_print=path.name == "cli.py") == []


def test_scan_flags_log_parameters_and_prints():
    source = "def f(x, *, log=None):\n    print(x)\ng = lambda log: 0\n"
    assert channel_faults(source, may_print=False) == [
        "parameter log (line 1)",
        "parameter log (line 3)",
        "print (line 2)",
    ]
    assert channel_faults(source, may_print=True) == [
        "parameter log (line 1)",
        "parameter log (line 3)",
    ]


def assert_statements(source: str) -> list[str]:
    return [
        f"assert (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assert)
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_statements(path.read_text()) == []


def test_scan_flags_assert_statements():
    source = "def f(x):\n    assert x, 'x'\n    return x  # assert\n"
    assert assert_statements(source) == ["assert (line 2)"]


def private_imports(source: str) -> list[str]:
    return [
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "brforge")
        for alias in node.names
        if alias.name.startswith("_")
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == []


def test_scan_flags_private_imports():
    source = (
        "from .engine import Vec, _stage_pass\n"
        "from brforge.ring import _keys\n"
        "from . import _helpers\n"
        "from .cli import main as _main\n"
        "from typing import _Final\n"
    )
    assert private_imports(source) == ["_stage_pass (line 1)", "_keys (line 2)", "_helpers (line 3)"]


def package_imports(source: str) -> list[str]:
    faults = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "brforge"
        ):
            faults.append(f"{'.' * node.level}{node.module or ''} (line {node.lineno})")
        elif isinstance(node, ast.Import):
            faults.extend(
                f"{a.name} (line {node.lineno})"
                for a in node.names
                if a.name.split(".")[0] == "brforge"
            )
    return faults


def test_chern_imports_no_package_module():
    assert package_imports((SRC / "chern.py").read_text()) == []


def test_scan_flags_package_imports():
    source = (
        "from .engine import Vec\n"
        "import brforge.ring, os\n"
        "from brforge import poly\n"
        "from . import io\n"
        "from itertools import combinations\n"
        "from __future__ import annotations\n"
    )
    assert package_imports(source) == [
        ".engine (line 1)",
        "brforge.ring (line 2)",
        "brforge (line 3)",
        ". (line 4)",
    ]


def exponent_decoders(source: str) -> list[str]:
    faults = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            faults.extend((node.lineno, "key_exponents") for a in node.names if a.name == "key_exponents")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "exponents"
        ):
            faults.append((node.lineno, ".exponents()"))
    return [f"{name} (line {line})" for line, name in sorted(faults)]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "poly.py"], ids=lambda p: p.name)
def test_only_poly_decodes_exponents(path):
    assert exponent_decoders(path.read_text()) == []


def test_scan_flags_exponent_decoding():
    source = (
        "from .ring import key_degree, key_exponents\n"
        "from brforge.ring import key_exponents as decode\n"
        "from .ring import key_lcm\n"
        "e = ring.exponents(k)[-1]\n"
        "f = g.ring.exponents(t) + exponents(t)\n"
        "h = ring.exponents\n"
    )
    assert exponent_decoders(source) == [
        "key_exponents (line 1)",
        "key_exponents (line 2)",
        ".exponents() (line 4)",
        ".exponents() (line 5)",
    ]


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[str]:
    faults = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT:
            faults.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            faults.extend((node.lineno, a.name) for a in node.names if a.name in ENVIRONMENT)
    return [f"{name} (line {line})" for line, name in sorted(faults)]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "cli.py"], ids=lambda p: p.name)
def test_only_cli_reads_the_environment(path):
    assert environment_reads(path.read_text()) == []


def test_scan_flags_environment_reads():
    source = (
        "import os\n"
        "a = os.environ.get('A')\n"
        "from os import getenv, path\n"
        "b = os.getenv('B') or os.path.join('x')\n"
        "c = 'environ'\n"
    )
    assert environment_reads(source) == [
        "environ (line 2)",
        "getenv (line 3)",
        "getenv (line 4)",
    ]


DRAWS = {"below", "bit", "next64"}


def rng_draws(source: str) -> list[str]:
    return [
        f"{node.func.attr} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in DRAWS
    ]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name not in ("ring.py", "poly.py")], ids=lambda p: p.name
)
def test_only_ring_and_poly_draw_from_an_rng(path):
    assert rng_draws(path.read_text()) == []


def test_scan_flags_rng_draws():
    source = (
        "c = draws.below(ring.p)\n"
        "if rng.bit():\n"
        "    x = Rng(0).next64()\n"
        "f = ring.sparse_form(2, rng)\n"
        "below = rng.below\n"
        "y = below_bound(3)  # rng.bit()\n"
    )
    assert rng_draws(source) == ["below (line 1)", "bit (line 2)", "next64 (line 3)"]
