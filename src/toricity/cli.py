"""Command-line interface.

Subcommands: ``analyze`` a matrix model, ``network`` for reaction network
files, ``batch`` for a directory of models, ``export`` a coset counting
system for an external solver.  Exit codes: 0 success, 2 parse error or
unreadable input or unwritable output, 3 dimension or precondition error.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
import zlib
from pathlib import Path

from .core import (
    AnalyzeOptions,
    EmptyLocusError,
    GroupMode,
    Verdict,
    analyze,
    coset_counting_system,
    invariance_group,
    render_exchange,
)
from .crn import (
    NetworkParseError,
    ZeroDynamicsError,
    acr_detect,
    analyze_network,
    conservation_laws,
    multistationarity_test,
    steady_state_system,
)
from .exactalg import IntegerMatrix
from .fileio import ModelDimensionError, ModelFormatError, read_model, parse_rational
from .polyring import render, term_count

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DIMENSION = 3

BATCH_EXTENSIONS = (".json", ".crn", ".txt", ".net")


# CPython's setitimer converts the limit to 64-bit nanoseconds, which overflow
# past ~9.2e9 s.
_TIMEOUT_MAX = 9e9


def _timeout(value: str) -> float:
    try:
        seconds = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {value!r}") from None
    if not 0 <= seconds <= _TIMEOUT_MAX:  # also refuses nan
        raise argparse.ArgumentTypeError(
            f"{value!r} is not a number of seconds from 0 to {_TIMEOUT_MAX:g}")
    return seconds


def _jobs(value: str) -> int:
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value {value!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"{value!r} is not a worker count of 1 or more")
    return jobs


def _matrix_lines(mat: IntegerMatrix, indent: str = "  ") -> list[str]:
    if mat.rows == 0:
        return [indent + "(empty)"]
    widths = [max(len(str(mat.entry(i, j))) for i in range(mat.rows))
              for j in range(mat.cols)]
    return [indent + "[ " + "  ".join(str(mat.entry(i, j)).rjust(widths[j])
                                      for j in range(mat.cols)) + " ]"
            for i in range(mat.rows)]


def _partition_text(partition) -> str:
    return " | ".join("{" + ",".join(str(j + 1) for j in sorted(b)) + "}"
                      for b in partition.blocks)


def render_report(report, label: str | None = None) -> str:
    lines = []
    if label:
        lines.append(f"model: {label}")
    lines.append(f"system: n={report.n} variables, m={report.m} parameters, s={report.s} equations"
                 f"  (mode {report.mode.value}, seed {report.seed})")
    lines.append(f"verdict: {report.verdict.value if report.verdict else 'none'}")
    if report.invariance is not None:
        lines.append(f"invariance lattice (d={report.d}):")
        lines.extend(_matrix_lines(report.invariance.A))
    if report.partition is not None:
        lines.append(f"matroid partition: {_partition_text(report.partition)}")
    if report.quasihomogeneity_rank is not None:
        agrees = "agrees with invariance" if report.quasihomogeneity_agrees \
            else "strictly coarser than invariance"
        lines.append(f"quasihomogeneity: rank {report.quasihomogeneity_rank} ({agrees})")
    lines.append(f"nondegenerate: {report.nondegenerate}")
    if report.binomial is not None:
        lines.append(f"binomial quick check: {'passed' if report.binomial else 'not binomial'}")
    if report.injectivity is not None:
        inj = report.injectivity
        status = "toric" if inj.toric else f"inconclusive ({inj.reason})"
        lines.append(f"injectivity: {status}")
        if inj.determinant is not None and term_count(inj.determinant) <= 24:
            lines.append(f"  determinant = {render(inj.determinant)}")
    if report.mixed_volume_bound is not None:
        lines.append(f"mixed volume bound: {report.mixed_volume_bound}")
    if report.conditions is not None:
        c = report.conditions
        lines.append("constant-count conditions: "
                     f"boundary-empty={c.boundary_empty}, "
                     f"all-positive-rank={c.rank_all_positive}, "
                     f"positive-row-space={'yes' if c.row_space_positive else 'no'}")
    if report.coset_count is not None:
        lines.append(f"coset count: {report.coset_count} ({report.coset_count_kind or 'derived'})")
    if report.parameter_region_full:
        lines.append("every strictly positive parameter value admits positive zeros")
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _past_digit_limit(exc: Exception) -> bool:
    """Python converts no integer of more digits than its limit to or from
    text, and says so in a plain ValueError.  The readers refuse longer
    literals, so such an error comes from a number the analysis made."""
    return isinstance(exc, ValueError) and str(exc).startswith("Exceeds the limit")


def _error_text(exc: Exception) -> str:
    if _past_digit_limit(exc):
        return (f"a number in the analysis has more than {sys.get_int_max_str_digits()} "
                "digits, too many to write as text")
    return str(exc)


def _read(path):
    """The model in ``path``, or the exit code of the error reading it,
    which is reported: a dimension mismatch or a parse error."""
    try:
        return read_model(path)
    except (ModelFormatError, ModelDimensionError, NetworkParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION if isinstance(exc, ModelDimensionError) else EXIT_PARSE


def _write(path, text: str) -> bool:
    """Write ``text`` to ``path``; an unwritable path is reported and gives
    False."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    model = _read(args.file)
    if isinstance(model, int):
        return model
    if model.kind != "matrix":
        print("error: 'analyze' expects a matrix model; use 'network' for reaction files",
              file=sys.stderr)
        return EXIT_PARSE
    mode = GroupMode(args.mode) if args.mode else model.mode
    options = AnalyzeOptions(boundary="yes" if args.assume_no_boundary_zeros else "unknown")
    if args.kappa:
        try:
            options.kappa = tuple(parse_rational(v) for v in args.kappa.split(","))
        except ModelFormatError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
    try:
        report = analyze(model.system, mode, args.seed, options)
    except ValueError as exc:
        print(f"error: {_error_text(exc)}", file=sys.stderr)
        return EXIT_DIMENSION
    if args.json:
        payload = report.to_dict()
        payload["model"] = str(args.file)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_report(report, label=str(args.file)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# network


def _acr_line(acr: dict[str, str] | None) -> str:
    if not acr:
        return "ACR: unknown"
    robust = sorted(k for k, v in acr.items() if v == "acr")
    local = sorted(k for k, v in acr.items() if v == "local-acr")
    if robust:
        return "ACR: " + ", ".join(robust)
    if local:
        return "ACR: none (local ACR: " + ", ".join(local) + ")"
    if any(v == "unknown" for v in acr.values()):
        return "ACR: undetermined"
    return "ACR: none"


def _multi_line(result) -> str:
    if result is None:
        return "multistationarity: not evaluated"
    text = {"multistationary": "Multistationary",
            "monostationary": "Monostationary",
            "inconclusive": "Inconclusive"}[result.status]
    extra = f" ({result.reason})" if result.reason else ""
    return f"multistationarity: {text}{extra}"


def cmd_network(args) -> int:
    model = _read(args.file)
    if isinstance(model, int):
        return model
    if model.kind != "network":
        print("error: 'network' expects a reaction network file", file=sys.stderr)
        return EXIT_PARSE
    net = model.network
    mode = GroupMode(args.mode) if args.mode else GroupMode.POSITIVE
    try:
        result = analyze_network(net, mode, args.seed, reduce=args.reduce)
    except ZeroDynamicsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION

    if args.json:
        payload = {
            "schema": 1,
            "model": str(args.file),
            "species": list(net.species),
            "reactions": [net.reaction_text(k) for k in range(net.num_reactions)],
            "verdict": result.verdict.value if result.verdict else None,
            "verdict_source": result.verdict_source,
            "boundary_condition": result.boundary,
            "direct_A": result.direct_A.to_lists(),
            "analysis": result.report.to_dict(),
            "reduced": result.reduced_report.to_dict() if result.reduced_report else None,
            "reduction": None if result.reduction is None else {
                "intermediates": [net.species[i] for i in result.reduction.y_indices],
                "reactions": [result.reduction.network.reaction_text(k)
                              for k in range(result.reduction.network.num_reactions)],
                "B": result.reduction.B.to_lists(),
                "surjectivity": result.reduction.surjectivity,
            },
            "lifted_A": result.lifted_A.to_lists() if result.lifted_A is not None else None,
            "acr": result.acr,
            "multistationarity": None if result.multistationarity is None else {
                "status": result.multistationarity.status,
                "reason": result.multistationarity.reason,
            },
            "structure": {
                "complexes": result.structure.complex_count,
                "linkage_classes": len(result.structure.linkage_classes),
                "rank": result.structure.rank,
                "deficiency": result.structure.deficiency,
                "weakly_reversible": result.structure.weakly_reversible,
                "matroid_refines_linkage": result.structure.matroid_refines_linkage,
                "deficiency_zero_toric": result.structure.deficiency_zero_toric,
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return EXIT_OK

    lines = [f"network: {len(net.species)} species, {net.num_reactions} reactions"]
    lines.append(f"verdict: {result.verdict.value} (settled on the "
                 f"{'reduced' if result.verdict_source == 'reduced' else 'full'} system)")
    lines.append(f"invariance lattice (original species order, d={result.direct_A.rows}):")
    lines.extend(_matrix_lines(result.direct_A))
    if result.reduction is not None and len(result.reduction.y_indices):
        names = ", ".join(net.species[i] for i in result.reduction.y_indices)
        lines.append(f"intermediates removed: {names} "
                     f"({result.reduction.network.num_reactions} reduced reactions, "
                     f"lift {result.reduction.surjectivity})")
        if result.lifted_A is not None:
            lines.append("lifted invariance lattice:")
            lines.extend(_matrix_lines(result.lifted_A))
    lines.append(f"boundary-zero exclusion (siphons): {result.boundary}")
    lines.append("")
    lines.append("full-system analysis:")
    lines.append(render_report(result.report))
    if result.reduced_report is not None:
        lines.append("")
        lines.append("reduced-system analysis:")
        lines.append(render_report(result.reduced_report))
    if args.acr or args.analyze or not (args.multistationarity or args.structure):
        lines.append("")
        lines.append(_acr_line(result.acr))
    if args.multistationarity or args.analyze or not (args.acr or args.structure):
        lines.append(_multi_line(result.multistationarity))
    if args.structure:
        st = result.structure
        lines.append(f"structure: complexes={st.complex_count} "
                     f"linkage-classes={len(st.linkage_classes)} rank={st.rank} "
                     f"deficiency={st.deficiency} "
                     f"weakly-reversible={'yes' if st.weakly_reversible else 'no'}")
        if st.matroid_refines_linkage is not None:
            lines.append("matroid partition refines linkage classes: "
                         + ("yes" if st.matroid_refines_linkage else "no"))
        lines.append("deficiency-zero toricity certificate: "
                     + ("yes" if st.deficiency_zero_toric else "no"))
    print("\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# batch


def _blank_row(name: str, verdict: str | None = None, error: str | None = None) -> dict:
    return {
        "model": name, "kind": None, "n": None, "m": None, "s": None, "d": None,
        "verdict": verdict, "nondegenerate": None, "injectivity": None,
        "mixed_volume": None, "coset_count": None, "coset_count_kind": None,
        "coset_bound": None, "acr": None, "local_acr": None,
        "multistationarity": None, "error": error,
    }


def _model_row(path: Path, seed: int) -> dict:
    model = read_model(path)
    if model.kind == "network":
        result = analyze_network(model.network, GroupMode.POSITIVE, seed)
        rep = result.report
        red = result.reduced_report
        source = red if (result.verdict_source == "reduced" and red) else rep
        # On the reduced path the full report's value is "yes-for-all-positive"
        # or "unknown", and the row falls back to the reduced value on
        # "unknown", so a reduced certificate is the row's value: taking it
        # first spares the full system's sweep.
        if source is red and red.nondegenerate == "yes-for-all-positive":
            nondegenerate = red.nondegenerate
        elif rep.nondegenerate != "unknown" or red is None:
            nondegenerate = rep.nondegenerate
        else:
            nondegenerate = red.nondegenerate
        inj = rep.injectivity or (red.injectivity if red else None)
        acr, multi = result.acr, result.multistationarity
    else:
        rep = source = analyze(model.system, model.mode, seed)
        nondegenerate = rep.nondegenerate
        inj = rep.injectivity
        acr = multi = None
        if rep.invariance is not None:
            acr = acr_detect(rep.invariance, rep.verdict)
            if model.stoichiometric is not None:
                laws = conservation_laws(model.stoichiometric)
                multi = multistationarity_test(model.system, rep.invariance, laws,
                                               toric=rep.verdict == Verdict.TORIC)
    row = _blank_row(path.name)
    row.update(kind=model.kind, n=rep.n, m=rep.m, s=rep.s, d=rep.d,
               verdict=rep.verdict.value if rep.verdict else None,
               nondegenerate=nondegenerate,
               injectivity=None if inj is None else ("toric" if inj.toric else "inconclusive"),
               mixed_volume=source.mixed_volume_bound,
               coset_count=source.coset_count,
               coset_count_kind=source.coset_count_kind,
               coset_bound=source.mixed_volume_bound,
               multistationarity=multi.status if multi else None)
    if acr is not None:
        row["acr"] = sorted(k for k, v in acr.items() if v == "acr")
        row["local_acr"] = sorted(k for k, v in acr.items() if v in ("acr", "local-acr"))
    return row


def run_batch_model(path_str: str, seed: int, timeout: float) -> dict:
    """Worker entry point: one model, hard wall-clock limit via SIGALRM.

    ``timeout`` is in seconds; 0 disables the limit.  An alarm at any point
    between arming and disarming the timer yields a ``timeout`` row.
    """
    path = Path(path_str)

    def on_timeout(signum, frame):
        raise TimeoutError

    old = signal.signal(signal.SIGALRM, on_timeout)
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            row = _model_row(path, seed)
            json.dumps(row)  # a number too long to write fails here, as this model's error
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except TimeoutError:
        # Reached from any point between arming and disarming.  The timer is
        # one-shot, so after it has fired or been disarmed no alarm is pending
        # while the rows below are built.
        row = _blank_row(path.name, "timeout")
    except Exception as exc:  # recorded per model, batch keeps going
        row = _blank_row(path.name, "error", _error_text(exc))
    finally:
        signal.signal(signal.SIGALRM, old)
    return row


def _model_seed(base_seed: int, name: str) -> int:
    return (base_seed ^ zlib.crc32(name.encode("utf-8"))) & 0xFFFFFFFF


def cmd_batch(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return EXIT_PARSE
    base_seed = args.seed
    files = sorted(p for p in directory.iterdir()
                   if p.is_file() and p.suffix in BATCH_EXTENSIONS)
    rows = {}
    timings = {}
    if args.jobs > 1 and len(files) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(args.jobs, len(files))) as pool:
            futures = {p.name: pool.submit(run_batch_model, str(p),
                                           _model_seed(base_seed, p.name), args.timeout)
                       for p in files}
            for name, fut in futures.items():
                rows[name] = fut.result()
    else:
        for p in files:
            start = time.monotonic()
            rows[p.name] = run_batch_model(str(p), _model_seed(base_seed, p.name),
                                           args.timeout)
            timings[p.name] = time.monotonic() - start
    ordered = [rows[p.name] for p in files]
    summary = {"models": len(ordered)}
    for row in ordered:
        key = row["verdict"] or "none"
        summary[key] = summary.get(key, 0) + 1
    for row in ordered:
        wall = f"  [{timings[row['model']]*1000:7.1f} ms]" if row["model"] in timings else ""
        verdict = row["verdict"] or "-"
        extra = f" ({row['error']})" if row["error"] else ""
        print(f"{row['model']:32s} {verdict:28s}{extra}{wall}")
    print(f"total: {summary['models']} models")
    report = {"schema": 1, "seed": base_seed, "models": ordered, "summary": summary}
    if args.report and not _write(args.report, json.dumps(report, indent=2, sort_keys=True) + "\n"):
        return EXIT_PARSE
    return EXIT_OK


# ---------------------------------------------------------------------------
# export


def cmd_export(args) -> int:
    model = _read(args.file)
    if isinstance(model, int):
        return model
    if model.kind == "network":
        system = steady_state_system(model.network)
    else:
        system = model.system
    try:
        kappa = tuple(parse_rational(v) for v in args.kappa.split(","))
        point = tuple(parse_rational(v) for v in args.point.split(",")) if args.point else None
    except ModelFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        inv = invariance_group(system)
        ccs = coset_counting_system(system, inv, kappa, args.seed, point)
    except (EmptyLocusError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    if not _write(args.out, render_exchange(ccs)):
        return EXIT_PARSE
    print(f"wrote {args.out}: {system.s} polynomial(s), {inv.d} linear equation(s)")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricity",
        description="Toricity analysis of vertically parametrized polynomial systems "
                    "and reaction networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze a matrix model (JSON)")
    p.add_argument("file")
    p.add_argument("--mode", choices=[m.value for m in GroupMode])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--kappa", help="parameter point for coset counting (comma separated)")
    p.add_argument("--assume-no-boundary-zeros", action="store_true",
                   help="assert the boundary condition for constant-count reasoning")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("network", help="analyze a reaction network file")
    p.add_argument("file")
    p.add_argument("--analyze", action="store_true", help="full analysis (default)")
    p.add_argument("--reduce", action=argparse.BooleanOptionalAction, default=True,
                   help="reduce intermediates before the analysis (default: on)")
    p.add_argument("--multistationarity", action="store_true")
    p.add_argument("--acr", action="store_true")
    p.add_argument("--structure", action="store_true")
    p.add_argument("--mode", choices=[m.value for m in GroupMode])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_network)

    p = sub.add_parser("batch", help="analyze every model in a directory")
    p.add_argument("directory")
    p.add_argument("--report", help="write the JSON report here")
    p.add_argument("--jobs", type=_jobs, default=1)
    p.add_argument("--timeout", type=_timeout, default=60.0,
                   help="wall-clock seconds per model, 0 for no limit")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("export", help="write the coset counting system to a file")
    p.add_argument("file")
    p.add_argument("--kappa", required=True, help="comma separated positive rationals")
    p.add_argument("--out", required=True)
    p.add_argument("--point", help="positive point defining the slice offset")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        if not _past_digit_limit(exc):
            raise
        print(f"error: {_error_text(exc)}", file=sys.stderr)
        return EXIT_DIMENSION


if __name__ == "__main__":
    sys.exit(main())
