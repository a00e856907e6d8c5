#!/usr/bin/env python3
"""Self-test of the benchmark's generators, oracles and tracer.

    python3 bench/selftest.py

Exits 0 when every check passes and 1 otherwise, naming each failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import generators  # noqa: E402
import oracles  # noqa: E402
from tracing import Tracer  # noqa: E402

from toricity import parse_network  # noqa: E402

FAILURES: list[str] = []


def check(condition: bool, message: str):
    if not condition:
        FAILURES.append(message)


def test_families():
    for k in range(1, 7):
        net = parse_network(generators.multisite(k))
        check((len(net.species), net.num_reactions) == (3 * k + 3, 6 * k),
              f"multisite({k}): {len(net.species)} species, {net.num_reactions} reactions")
        net = parse_network(generators.cascade(k))
        check((len(net.species), net.num_reactions) == (5 * k + 1, 6 * k),
              f"cascade({k}): {len(net.species)} species, {net.num_reactions} reactions")
    check(oracles.family_expectation("multisite", 1) == "monostationary", "multisite 1 oracle")
    check(oracles.family_expectation("multisite", 2) == "multistationary", "multisite 2 oracle")
    check(oracles.family_expectation("cascade", 3) == "monostationary", "cascade 3 oracle")


def test_screen():
    first = generators.screen(7, 40)
    check(first == generators.screen(7, 40), "screen is not a pure function of its seed")
    check(first != generators.screen(8, 40), "screen ignores its seed")
    check(first[:10] == generators.screen(7, 10), "screen count changes its prefix")
    for text in first:
        net = parse_network(text)
        base = {s for s in net.species if s.startswith("X")}
        check(len(base) <= 6, f"more than 6 base species:\n{text}")


def test_certificate():
    # A + B <=> C: v = (1, 1) is a positive kernel vector, and a row a keeps
    # k1 x_A x_B = k2 x_C invariant exactly when a_A + a_B = a_C.
    net = parse_network("A + B <=> C\n")
    check(oracles.check_certificate(net, (1, 1), [[1, 0, 1]]) is None,
          "valid invariance row rejected")
    check(oracles.check_certificate(net, (1, 1), [[1, -1, 0]]) is None,
          "valid invariance row (1, -1, 0) rejected")
    check(oracles.check_certificate(net, (1, 1), [[1, 0, 0]]) is not None,
          "invalid invariance row accepted")
    check(oracles.check_certificate(net, (1, 2), []) is not None, "non-kernel witness accepted")
    check(oracles.check_certificate(net, (0, 0), []) is not None, "zero witness accepted")


def test_self_time():
    tracer = Tracer()
    # outer [0, 100] holds inner [10, 40] and inner [50, 60]; a second outer
    # [200, 230] was cut off by a time limit and belongs to an unfinished model
    tracer.spans.extend([
        ["core.analyze", 0, 100_000_000, -1, 0],
        ["exactalg.kernel_circuit_basis", 10_000_000, 40_000_000, 0, 0],
        ["exactalg.kernel_circuit_basis", 50_000_000, 60_000_000, 0, 0],
        ["core.analyze", 200_000_000, 230_000_000, -1, 1],
    ])
    tracer.finished.add(0)
    s = tracer.summary(passes=1)
    check(s["core.analyze.self_ms"] == 90.0, f"analyze self_ms {s['core.analyze.self_ms']}")
    check(s["core.analyze.total_ms"] == 130.0, f"analyze total_ms {s['core.analyze.total_ms']}")
    check(s["exactalg.kernel_circuit_basis.self_ms"] == 40.0, "kernel basis self_ms")
    check(s["core.analyze.calls"] == 1, "unfinished model counted in calls")
    check(s["repeat.kernel_circuit_basis"] == 2.0, "repeat ratio")


def main() -> int:
    for test in (test_families, test_screen, test_certificate, test_self_time):
        test()
    for message in FAILURES:
        print("FAIL", message)
    print("selftest:", "ok" if not FAILURES else f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
