#!/usr/bin/env python3
"""Toricity benchmark: one workload, closed loop, one client.

    python3 bench/run.py --workload corpus|families|screen --seed N \\
        --seconds S --trace 0|1

A single process analyses one model at a time.  Each model runs under the
workload's time limit, applied with SIGALRM the way ``batch --timeout``
applies it.  A run repeats passes over the workload's model set until
``--seconds`` have been measured (at least one pass), checks every answer,
prints a table and, as its last line, one JSON object with the metrics.
End-to-end times are scaled to a quiet host with ``hostspeed``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
untraced and traced passes alternate; the metrics are the per-layer ones
from the traced passes plus the tracing overhead, and the spans are
written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
HASH_SEED = "0"        # PYTHONHASHSEED for every run; "0" turns randomization off

# cold import in a fresh interpreter, scaled by probes in that interpreter
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:]; import hostspeed; "
                "b = hostspeed.probe(); t = time.perf_counter(); import toricity; "
                "t = time.perf_counter() - t; a = hostspeed.probe(); "
                "print(t * hostspeed.NOMINAL_S * 2 / (a + b))")


@dataclass
class Case:
    """One model of a pass: ``run`` returns the library's answer, ``judge``
    maps it to (failure reason or None, inconclusive)."""
    name: str
    run: Callable[[], object]
    judge: Callable[[object], tuple[str | None, bool]]


@dataclass
class Sample:
    name: str
    status: str          # "ok" | "wrong" | "timeout" | "error"
    elapsed: float       # seconds from the call to the verdict
    probe: float         # host speed probe around the call, seconds
    inconclusive: bool = False
    detail: str = ""

    @property
    def scaled(self) -> float:
        """Elapsed time on a quiet host.  A timeout is wall-clock time set
        by the alarm, so it is not scaled."""
        if self.status == "timeout":
            return self.elapsed
        return self.elapsed * hostspeed.NOMINAL_S / self.probe


FINISHED = ("ok", "wrong")     # statuses of a model run that reached a verdict


class Workload:
    """A fixed model set; ``build(seed)`` makes the cases of one pass."""
    name: str
    limit: float         # per-model time limit, seconds

    def build(self, seed: int) -> list[Case]:
        raise NotImplementedError


def model_seed(base_seed: int, name: str) -> int:
    """The per-model seed ``batch`` derives from its base seed."""
    return (base_seed ^ zlib.crc32(name.encode("utf-8"))) & 0xFFFFFFFF


def with_limit(fn: Callable[[], object], limit: float):
    """Run ``fn`` under a wall-clock limit; returns (status, value)."""
    armed = True

    def on_alarm(signum, frame):
        if armed:
            raise TimeoutError

    old = signal.signal(signal.SIGALRM, on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        return "ok", fn()
    except TimeoutError:
        return "timeout", None
    except Exception as exc:  # a library error is a failed model, not a failed run
        return "error", exc
    finally:
        armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def analyze_text(text: str, seed: int):
    # imported per call, so a traced run reaches the wrapped functions
    from toricity import GroupMode, analyze_network, parse_network
    return analyze_network(parse_network(text), GroupMode.POSITIVE, seed)


def network_status(analysis) -> tuple[str | None, str | None]:
    verdict = analysis.verdict.value if analysis.verdict else None
    multi = analysis.multistationarity.status if analysis.multistationarity else None
    return verdict, multi


# ---------------------------------------------------------------------------
# workloads


class Corpus(Workload):
    """The 8 bundled models through ``cli.run_batch_model``."""
    name = "corpus"
    limit = 5.0

    def build(self, seed):
        from toricity import cli
        from toricity.fileio import read_model
        import oracles

        models = SRC / "toricity" / "data" / "models"
        cases = []
        for name in sorted(oracles.CORPUS_VERDICTS):
            path = models / name
            read_model(path)

            def run(path=str(path), seed=model_seed(seed, name)):
                row = cli.run_batch_model(path, seed, self.limit)
                if row["verdict"] == "timeout":
                    raise TimeoutError
                if row["verdict"] == "error":
                    raise RuntimeError(row["error"])
                return row

            def judge(row, name=name):
                return (oracles.check_corpus_row(name, row),
                        oracles.inconclusive(row["verdict"], row["multistationarity"]))

            cases.append(Case(name, run, judge))
        return cases


class Families(Workload):
    """k-site phosphorylation (k = 1..4) and k-layer cascades (k = 1..3).

    Each network is analysed with batch's per-model seed for base seed 0.
    The workload seed only orders the models: the analysis seed alone moves
    single models' times by up to 60% (``cascade_3``: 1.9 s to 3.1 s), and
    with one network per size it would dominate every end-to-end metric.
    ``multisite_5`` is left out because every run of a workload must finish
    every model: today it raises ``DeterminantSizeError`` (ROADMAP item 1).
    """
    name = "families"
    limit = 10.0
    members = [("multisite", k) for k in range(1, 5)] + [("cascade", k) for k in range(1, 4)]

    def build(self, seed):
        from toricity import parse_network
        import generators
        import oracles

        cases = []
        for family, k in self.members:
            name = f"{family}_{k}"
            text = getattr(generators, family)(k)
            parse_network(text)

            def judge(analysis, family=family, k=k):
                return (oracles.check_family(family, k, analysis),
                        oracles.inconclusive(*network_status(analysis)))

            cases.append(Case(name, lambda t=text, s=model_seed(0, name):
                              analyze_text(t, s), judge))
        random.Random(seed).shuffle(cases)
        return cases


class Screen(Workload):
    """Random 3-6 species networks built from 2-4 motifs.

    The networks come from one fixed population seed, so every run loads
    ``polyhedra`` with the same mix of many small hulls and a few huge
    ones.  As in ``Families``, the analysis seeds are fixed and the
    workload seed only orders the models.  Drawing the networks from the
    workload seed makes the number of mixed-volume blow-ups, and with it
    every end-to-end metric, vary by tens of percent between seeds; so does
    renaming species and shuffling reactions, which changes single models'
    times by up to 2x.

    Three networks of the population are left out because every run of a
    workload must finish every model: each spends over 40 s in the mixed
    volume (ROADMAP items 1 and 4).
    """
    name = "screen"
    limit = 5.0
    population_seed = 20241122
    population = 120
    left_out = {6, 21, 78}

    def build(self, seed):
        from toricity import parse_network, strictly_positive_kernel
        import generators
        import oracles

        cases = []
        for index, text in enumerate(generators.screen(self.population_seed, self.population)):
            if index in self.left_out:
                continue
            name = f"screen_{index}"
            net = parse_network(text)

            def judge(analysis, net=net):
                verdict, multi = network_status(analysis)
                if verdict == "empty_positive_locus":
                    return None, False
                witness = analysis.report.positive_kernel_witness
                if witness is None:
                    witness = strictly_positive_kernel(analysis.system.C).witness
                if witness is None:
                    return f"verdict {verdict} without a positive kernel witness", False
                inv = analysis.direct_A if analysis.direct_A.rows else analysis.lifted_A
                rows = inv.to_lists() if inv is not None else []
                return (oracles.check_certificate(net, witness, rows),
                        oracles.inconclusive(verdict, multi))

            cases.append(Case(name, lambda t=text, s=model_seed(0, name):
                              analyze_text(t, s), judge))
        random.Random(seed).shuffle(cases)
        return cases


WORKLOADS = {w.name: w for w in (Corpus(), Families(), Screen())}


# ---------------------------------------------------------------------------
# measurement


def import_seconds() -> float:
    """Scaled cold ``import toricity`` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def setup(workload: Workload, seed: int) -> tuple[list[Case], float]:
    """Import, then generate and parse the inputs, ``SETUP_REPEATS`` times;
    returns the cases and the median scaled set-up time."""
    times = []
    cases = []
    for _ in range(SETUP_REPEATS):
        cold_import = import_seconds()
        before = hostspeed.probe()
        start = time.perf_counter()
        cases = workload.build(seed)
        elapsed = time.perf_counter() - start
        speed = (before + hostspeed.probe()) / 2
        times.append(cold_import + elapsed * hostspeed.NOMINAL_S / speed)
    return cases, statistics.median(times)


def run_pass(cases: list[Case], limit: float, tracer=None, first_model: int = 0) -> list[Sample]:
    samples = []
    gc.collect()
    before = hostspeed.probe()
    for offset, case in enumerate(cases):
        if tracer is not None:
            tracer.start_model(first_model + offset)
            tracer.enabled = True
        start = time.perf_counter()
        status, value = with_limit(case.run, limit)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        # untimed: each model starts with an empty heap of garbage, whatever
        # ran before it in this seed's order
        gc.collect()
        after = hostspeed.probe()
        sample = Sample(case.name, status, elapsed, (before + after) / 2)
        before = after
        if status == "error":
            sample.detail = f"{type(value).__name__}: {value}"
        elif status == "ok":
            reason, sample.inconclusive = case.judge(value)
            if reason is not None:
                sample.status, sample.detail = "wrong", reason
        if tracer is not None:
            tracer.end_model(sample.status in FINISHED)
        samples.append(sample)
    return samples


def end_to_end(passes: list[list[Sample]], limit: float, setup_s: float) -> dict:
    """Metrics over the model set; each model's samples are its passes.

    A model's time is the median over its passes of its scaled time (see
    ``hostspeed``).  For the percentiles an error or timeout enters at the
    time limit, so a failure counts as a miss.  A model is ok when every
    pass was, and inconclusive when any finished pass was.
    """
    models: dict[str, list[Sample]] = {}
    for samples in passes:
        for s in samples:
            models.setdefault(s.name, []).append(s)
    elapsed = [statistics.median(s.scaled for s in ss) for ss in models.values()]
    times_ms = [1000 * statistics.median(s.scaled if s.status in FINISHED else limit for s in ss)
                for ss in models.values()]
    finished = [ss for ss in models.values() if any(s.status in FINISHED for s in ss)]
    return {
        "setup_s": (setup_s, "s"),
        "models_per_s": (len(elapsed) / sum(elapsed), "1/s"),
        "verdict_ms.p50": (statistics.median(times_ms), "ms"),
        "verdict_ms.p90": (statistics.quantiles(times_ms, n=10, method="inclusive")[-1], "ms"),
        "ok_share": (sum(all(s.status == "ok" for s in ss) for ss in models.values())
                     / len(models), "share"),
        "conclusive_share": (sum(not any(s.inconclusive for s in ss) for ss in finished)
                             / len(finished) if finished else 0.0, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def print_table(title: str, metrics: dict, passes: list[list[Sample]]):
    samples = [s for p in passes for s in p]
    print(f"{title}: {len(passes)} passes, {len(samples)} model runs")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.4f} {unit}")
    for s in samples:
        if s.status != "ok":
            print(f"  {s.status:8s} {s.name}: {s.detail}")


def measure(workload: Workload, cases: list[Case], seconds: float) -> list[list[Sample]]:
    """Passes until ``seconds`` have passed.  A model that raised or timed
    out is not run again: its outcome is settled, and rerunning the
    timeouts would leave time for few passes of the others."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(cases, workload.limit))
        failed = {s.name for s in passes[-1] if s.status not in FINISHED}
        cases = [c for c in cases if c.name not in failed]
    return passes


def measure_traced(workload: Workload, cases: list[Case], seconds: float, tracer):
    """Alternate untraced and traced passes; returns both lists."""
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(run_pass(cases, workload.limit))
        traced.append(run_pass(cases, workload.limit, tracer, len(traced) * len(cases)))
    return plain, traced


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing orders the library's sets of names, and with them its
        # work: under random hash seeds most screen models' times move by up
        # to 70% from one process to the next.  Pin it and start over.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                                   *sys.argv[1:]], env)
    if not (SRC / "toricity" / "__init__.py").is_file():
        print(f"error: the toricity sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    workload = WORKLOADS[args.workload]
    cases, setup_s = setup(workload, args.seed)

    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            plain, traced = measure_traced(workload, cases, args.seconds, tracer)
        finally:
            tracer.uninstall()
        checked = plain + traced
        # overhead over the models that finished, since a timeout costs the
        # same traced or not
        wall = [[sum(s.scaled for s in p if s.status in FINISHED) for p in side]
                for side in (plain, traced)]
        overhead = 100 * (statistics.median(wall[1]) / statistics.median(wall[0]) - 1)
        summary = tracer.summary(len(traced))
        summary["trace.overhead_pct"] = overhead
        tracer.dump(OUT / f"trace-{workload.name}-seed{args.seed}.json", summary,
                    {"workload": workload.name, "seed": args.seed, "passes": len(traced),
                     "models_per_pass": len(cases)})
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = {m["name"]: (summary[m["name"]], m["unit"]) for m in declared}
        print_table(f"{workload.name} traced", metrics, traced)
    else:
        checked = measure(workload, cases, args.seconds)
        metrics = end_to_end(checked, workload.limit, setup_s)
        print_table(workload.name, metrics, checked)

    samples = [s for p in checked for s in p]
    wrong = sum(s.status == "wrong" for s in samples)
    result = {
        "correct": wrong == 0,
        "attempted": len(samples),
        "failed": sum(s.status != "ok" for s in samples),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
