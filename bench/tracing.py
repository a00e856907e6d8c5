"""Span tracer that wraps the library's layer functions from outside.

Only a traced run installs it.  Each wrapped call records a span (name,
start, end, parent) in memory; the summary derives calls, self time and
total time per function, plus a few counters read from arguments and
return values.  ``dump`` writes spans and summary to a JSON file.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# module -> functions wrapped in a traced run; the modules are the layers
LAYERS = {
    "exactalg": ("kernel_circuit_basis", "hermite_normal_form", "integer_kernel_basis",
                 "left_kernel_basis", "random_kernel_vector"),
    "polyhedra": ("simplex_maximize", "strictly_positive_kernel", "extreme_rays",
                  "mixed_volume", "positive_row_space"),
    "polyring": ("det_stacked", "det_symbolic", "sign_classify", "count_distinct_roots"),
    "core": ("analyze", "matroid_partition", "invariance_group", "quasihomogeneity_weights",
             "nondegeneracy", "nondegeneracy_all_positive", "injectivity_test",
             "constant_coset_conditions", "count_positive_cosets"),
    "crn": ("parse_network", "steady_state_system", "conservation_laws", "network_structure",
            "find_intermediates", "reduce_network", "minimal_siphons",
            "siphon_boundary_check", "multistationarity_test", "analyze_network"),
    "fileio": ("read_model",),
    "cli": ("run_batch_model",),
}

# per-call counters: span name -> (counter name, f(args, result))
COUNTERS = {
    "polyring.det_stacked": ("polyring.det_stacked.terms",
                             lambda args, result: len(result.terms)),
    "polyhedra.mixed_volume": ("polyhedra.mixed_volume.points",
                               lambda args, result: sum(len(getattr(s, "points", s))
                                                        for s in args[0])),
    "crn.minimal_siphons": ("crn.minimal_siphons.found",
                            lambda args, result: len(result)),
}

ANALYZE = "core.analyze"
MIXED_VOLUME = "polyhedra.mixed_volume"
SIMPLEX = "polyhedra.simplex_maximize"
REPEATED = ("exactalg.kernel_circuit_basis", "polyhedra.strictly_positive_kernel",
            "polyhedra.extreme_rays")


def _span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


class Tracer:
    """Collects spans for the calls of every function in ``LAYERS``.

    Spans are lists ``[name, start_ns, end_ns, parent, model]``; ``end_ns``
    is 0 while the call is open.  ``model`` tags each span with the model
    being analysed, so counts can be restricted to models that finished.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.model = -1
        self.first_span = 0
        self.finished: set[int] = set()
        self.enabled = False
        self._installed: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap each listed function and rebind every module attribute
        holding the same object, since modules import these by name."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "toricity" or name.startswith("toricity."))]
        for mod_name, fns in LAYERS.items():
            mod = importlib.import_module(f"toricity.{mod_name}")
            for fn in fns:
                original = getattr(mod, fn)
                wrapper = self._wrap(f"{mod_name}.{fn}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._installed.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, original in reversed(self._installed):
            setattr(m, attr, original)
        self._installed.clear()

    def _wrap(self, name: str, func):
        spans = self.spans
        stack = self.stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, self.model])
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                if stack and stack[-1] == index:
                    stack.pop()
            if counter is not None:
                self.counts[self.model][counter[0]] += counter[1](args, result)
            return result

        return traced

    # -- model boundaries -------------------------------------------------

    def start_model(self, model: int):
        self.model = model
        self.first_span = len(self.spans)
        self.stack.clear()

    def end_model(self, finished: bool):
        """Close spans a timeout left open and record how the model ended."""
        now = time.perf_counter_ns()
        for span in self.spans[self.first_span:]:
            if span[2] == 0:
                span[2] = now
        self.stack.clear()
        if finished:
            self.finished.add(self.model)
        self.model = -1

    # -- summary ----------------------------------------------------------

    def summary(self, passes: int) -> dict[str, float]:
        """Per-pass metrics: ``F.calls``, ``F.self_ms`` and ``F.total_ms``
        for every wrapped function, the counters, and the ratios.

        Times cover every span.  Calls, counters and ratios cover only the
        models that finished, so an interrupted model cannot make them
        depend on where its time limit struck.
        """
        names = _span_names()
        child_ns = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns = dict.fromkeys(names, 0)
        total_ns = dict.fromkeys(names, 0)
        calls = dict.fromkeys(names, 0)
        simplex_in_mv = 0
        for index, (name, start, end, parent, model) in enumerate(self.spans):
            self_ns[name] += end - start - child_ns[index]
            if not self._has_ancestor(parent, name):
                total_ns[name] += end - start
            if model in self.finished:
                calls[name] += 1
                if name == SIMPLEX and self._has_ancestor(parent, MIXED_VOLUME):
                    simplex_in_mv += 1
        out: dict[str, float] = {}
        for name in names:
            out[f"{name}.calls"] = calls[name] / passes
            out[f"{name}.self_ms"] = self_ns[name] / 1e6 / passes
            out[f"{name}.total_ms"] = total_ns[name] / 1e6 / passes
        counted = defaultdict(int)
        for model, values in self.counts.items():
            if model in self.finished:
                for key, value in values.items():
                    counted[key] += value
        for key, _ in COUNTERS.values():
            out[key] = counted[key] / passes
        mv_calls = calls[MIXED_VOLUME]
        out["polyhedra.simplex_per_mixed_volume"] = simplex_in_mv / mv_calls if mv_calls else 0.0
        analyze_calls = calls[ANALYZE]
        for name in REPEATED:
            short = name.split(".", 1)[1]
            out[f"repeat.{short}"] = calls[name] / analyze_calls if analyze_calls else 0.0
        return out

    def _has_ancestor(self, parent: int, name: str) -> bool:
        while parent >= 0:
            span = self.spans[parent]
            if span[0] == name:
                return True
            parent = span[3]
        return False

    def dump(self, path: Path, summary: dict, meta: dict):
        names = _span_names()
        code = {name: i for i, name in enumerate(names)}
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "meta": meta,
            "summary": summary,
            "span_names": names,
            "spans": [[code[name], start, end, parent, model]
                      for name, start, end, parent, model in self.spans],
        }
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")
