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

from toricity import GroupMode, analyze_network, cli, parse_network
from toricity.exactalg import RationalMatrix
from toricity.polyring import term_count

from _oracles import RingPolynomial, stacked_det

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
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
    layers = _load_bench("tracing").LAYERS
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
    name, count = _load_bench("tracing").COUNTERS["polyring.det_stacked"]
    assert name == "polyring.det_stacked.terms"
    variables = ("x", "y", "z")
    x, y, z = (RingPolynomial.variable(variables, v) for v in variables)
    top = [[x, y, z], [y, z * z, x]]
    bottom = RationalMatrix([[1, -2, 3]])
    det = stacked_det(top, bottom)
    assert term_count(det) == 6
    assert count((top, bottom), det) == 6


# the layers a traced analysis of multisite_2, cascade_2 and sparse_pair.json reaches
REACHED = {
    "cli.run_batch_model",
    *(f"core.{name}" for name in (
        "analyze", "constant_coset_conditions", "injectivity_test", "invariance_group",
        "matroid_partition", "nondegeneracy", "nondegeneracy_all_positive",
        "quasihomogeneity_weights")),
    *(f"crn.{name}" for name in (
        "conservation_laws", "find_intermediates", "minimal_siphons", "multistationarity_test",
        "reduce_network", "siphon_boundary_check", "steady_state_system")),
    *(f"exactalg.{name}" for name in (
        "hermite_normal_form", "integer_kernel_basis", "kernel_circuit_basis",
        "left_kernel_basis")),
    "fileio.read_model",
    *(f"polyhedra.{name}" for name in (
        "extreme_rays", "mixed_volume", "positive_row_space", "simplex_maximize",
        "strictly_positive_kernel")),
    "polyring.det_stacked", "polyring.sign_classify",
}


def test_traced_layers_are_reached():
    """The tracer still sees every layer the analysis runs through.  A
    layer called under a new name, or skipped because its result is kept
    somewhere else, drops out of a traced run without failing anything
    else: the per-layer metrics would read 0 on working code."""
    generators = _load_bench("generators")
    nets = [parse_network(generators.multisite(2)), parse_network(generators.cascade(2))]
    model = Path(cli.__file__).parent / "data" / "models" / "sparse_pair.json"
    tracer = _load_bench("tracing").Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        tracer.start_model(0)
        for net in nets:
            analyze_network(net, GroupMode.POSITIVE, 0)  # bound before install: untraced
        assert cli.run_batch_model(str(model), 0, 0)["verdict"] not in ("error", "timeout")
        tracer.end_model(True)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    assert len(REACHED) == 28
    assert {span[0] for span in tracer.spans} == REACHED
