#!/usr/bin/env python3
"""Compare two traced runs layer by layer.

    python3 bench/compare.py BEFORE AFTER

BEFORE and AFTER are trace files written by ``run.py --trace 1`` or
directories holding them (``trace-<workload>-seed<N>.json``).  For each
workload present on both sides, the table gives every wrapped function's
calls and self time per pass before and after, and the change; counters and
ratios follow.  Where a side has several seeds of a workload, each metric is
the median over them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(path: Path) -> dict[str, dict[str, float]]:
    """workload -> metric -> value (median over the seeds found)."""
    files = sorted(path.glob("trace-*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"error: no trace files under {path}")
    values: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for f in files:
        data = json.loads(f.read_text(encoding="utf-8"))
        for name, value in data["summary"].items():
            values[data["meta"]["workload"]][name].append(value)
    return {w: {name: statistics.median(v) for name, v in metrics.items()}
            for w, metrics in values.items()}


def _change(before: float, after: float) -> str:
    if before == after:
        return "="
    if before == 0:
        return "new"
    return f"{100 * (after - before) / before:+.1f}%"


def compare(before: dict[str, dict[str, float]], after: dict[str, dict[str, float]]) -> str:
    lines = []
    for workload in sorted(set(before) & set(after)):
        b, a = before[workload], after[workload]
        lines.append(f"== {workload}")
        lines.append(f"  {'function':44s} {'calls':>17s} {'change':>8s}"
                     f" {'self ms':>21s} {'change':>8s}")
        functions = sorted({name[:-len(".calls")] for name in b if name.endswith(".calls")})
        for fn in functions:
            calls = (b.get(f"{fn}.calls", 0), a.get(f"{fn}.calls", 0))
            self_ms = (b.get(f"{fn}.self_ms", 0), a.get(f"{fn}.self_ms", 0))
            if not any(calls + self_ms):
                continue
            lines.append(f"  {fn:44s} {calls[0]:8g}>{calls[1]:<8g} {_change(*calls):>8s}"
                         f" {self_ms[0]:10.2f}>{self_ms[1]:<10.2f} {_change(*self_ms):>8s}")
        others = sorted(name for name in b
                        if not name.endswith((".calls", ".self_ms", ".total_ms")))
        for name in others:
            pair = (b[name], a.get(name, 0))
            lines.append(f"  {name:44s} {pair[0]:10.3f} > {pair[1]:<10.3f} {_change(*pair):>8s}")
    if not lines:
        lines.append("no workload traced on both sides")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    print(compare(load(args.before), load(args.after)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
