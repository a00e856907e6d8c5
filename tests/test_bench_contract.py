"""The library names the benchmark harness depends on still resolve, and
the harness still works on the library.

``bench/tracing.py`` wraps every function in its ``LAYERS`` table through
``getattr``, and the harness modules import a few names directly.  Removing
or renaming one of them breaks ``bench/run.py`` (a traced run first of all)
without failing any other test.  So does a change to what the tracer's
counters read from the results, and ``bench/selftest.py`` checks the
harness's generators, oracles and span summary.
"""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

from toricity.exactalg import RationalMatrix
from toricity.polyring import SparsePolynomial, det_stacked, term_count

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module_name: str, name: str) -> bool:
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return True
    try:  # ``from toricity import cli`` names a submodule
        importlib.import_module(f"{module_name}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_traced_layers_resolve():
    layers = _load_tracing().LAYERS
    missing = [f"{mod}.{fn}" for mod, fns in layers.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"toricity.{mod}"), fn, None))]
    assert not missing, missing


def test_harness_imports_resolve():
    imported = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "toricity":
                imported += [(path.name, node.module, alias.name) for alias in node.names]
    names = {name for _, _, name in imported}
    # the names bench/run.py is known to import; guards the scan itself
    assert {"strictly_positive_kernel", "parse_network", "analyze_network", "GroupMode",
            "cli", "read_model"} <= names
    missing = [entry for entry in imported if not _resolves(entry[1], entry[2])]
    assert not missing, missing


def test_selftest_passes():
    done = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest: ok" in done.stdout


def test_determinant_term_counter():
    """The traced ``det_stacked.terms`` counter reads a packed determinant."""
    name, count = _load_tracing().COUNTERS["polyring.det_stacked"]
    assert name == "polyring.det_stacked.terms"
    variables = ("x", "y", "z")
    x, y, z = (SparsePolynomial.variable(variables, v) for v in variables)
    top = [[x, y, z], [y, z * z, x]]
    bottom = RationalMatrix([[1, -2, 3]])
    det = det_stacked(top, bottom)
    assert term_count(det) == 6
    assert count((top, bottom), det) == 6
