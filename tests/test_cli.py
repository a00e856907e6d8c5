import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from toricity.cli import main
from toricity.core import GroupMode
from toricity.exactalg import IntegerMatrix, RationalMatrix
from toricity.fileio import read_model

from _oracles import same_row_lattice

SRC = Path(__file__).resolve().parents[1] / "src"
MODELS = SRC / "toricity" / "data" / "models"


def run_python(*args):
    """Run a fresh interpreter on this checkout's ``src``, however pytest was
    given it (``PYTHONPATH`` or the ``pythonpath`` setting)."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


IDH_MATRIX_JSON = {
    "C": [["-1", "1", "1", "0", "0", "0"],
          ["-1", "1", "0", "0", "0", "1"],
          ["0", "0", "0", "1", "-1", "-1"]],
    "M": [[1, 0, 0, 0, 0, 0],
          [1, 0, 0, 0, 0, 0],
          [0, 1, 1, 1, 0, 0],
          [0, 0, 0, 1, 0, 0],
          [0, 0, 0, 0, 1, 1]],
    "mode": "positive",
}

TRIANGLE_MATRIX_JSON = {
    "C": [["1", "-1", "1", "-2"]],
    "M": [[3, 3, 0, 6], [2, 2, 4, 0]],
    "mode": "positive",
}


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_idh_json(tmp_path, capsys):
    path = write_json(tmp_path, "idh.json", IDH_MATRIX_JSON)
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "toric"
    assert payload["d"] == 2
    assert payload["nondegenerate"] == "yes-for-all-positive"
    assert same_row_lattice(IntegerMatrix(payload["invariance"]["A"]),
                            IntegerMatrix([[1, 0, 1, 0, 1], [0, 1, 1, 0, 1]]))


def test_analyze_free_pair(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(MODELS / "sparse_pair_free.json"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == 0
    assert payload["verdict"] == "not_locally_toric"


UNIT_M = [[1, 0], [0, 1]]


@pytest.mark.parametrize("payload", [
    pytest.param("{ this is not json", id="not-json"),
    pytest.param({"C": [["1", "-1"]], "M": [[1.5, 0], [0, 1]]}, id="fractional-M"),
    pytest.param({"C": [["1", "-1"]], "M": [[True, 0], [0, 1]]}, id="boolean-M"),
    pytest.param({"C": [["1", "-1"], ["1"]], "M": UNIT_M}, id="ragged-C"),
    pytest.param({"N": [[1, -1], [1]], "M": UNIT_M}, id="ragged-N"),
    pytest.param({"C": 5, "M": UNIT_M}, id="scalar-C"),
    pytest.param({"C": [["1", "-1"]], "M": UNIT_M, "mode": "complex"}, id="unknown-mode"),
])
def test_analyze_malformed(tmp_path, capsys, payload):
    """A model that is not JSON, or whose matrices are not lists of rows of
    one width with entries of the right kind, exits 2."""
    path = tmp_path / "bad.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload),
                    encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "error" in err


def test_analyze_dimension_mismatch(tmp_path, capsys):
    payload = {"C": [["1", "2"]], "M": [[1, 0, 0]], "mode": "positive"}
    path = write_json(tmp_path, "bad_dims.json", payload)
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 3
    assert "mismatch" in err


@pytest.mark.parametrize("command", ["network", "export"])
def test_dimension_mismatch_exits_3(tmp_path, capsys, command):
    """Every command that reads a model reports C and M of different widths
    as a dimension error, exit 3, as ``analyze`` does."""
    path = write_json(tmp_path, "bad_dims.json", {"C": [["1", "-1"]], "M": [[1, 0, 2]]})
    out_file = tmp_path / "system.txt"
    extra = ["--kappa", "1,1", "--out", str(out_file)] if command == "export" else []
    code, out, err = run_cli(capsys, command, str(path), *extra)
    assert code == 3
    assert err.startswith("error: ") and out == ""
    assert not out_file.exists()


@pytest.mark.parametrize("command", ["analyze", "network", "export"])
@pytest.mark.parametrize("name, payload", [("bin.crn", b"\xff\xfe\x00A -> B\n"),
                                           ("bin.json", b'{"C": [["1"]], "M": [[1]]}\xff')],
                         ids=["crn", "json"])
def test_model_that_is_not_utf8_exits_2(tmp_path, capsys, command, name, payload):
    """A model file that is not UTF-8 text is a parse error, exit 2, for
    every command that reads one; batch records it as an error row."""
    path = tmp_path / name
    path.write_bytes(payload)
    out_file = tmp_path / "system.txt"
    extra = ["--kappa", "1", "--out", str(out_file)] if command == "export" else []
    code, out, err = run_cli(capsys, command, str(path), *extra)
    assert code == 2
    assert err.startswith("error: ") and "UTF-8" in err and out == ""
    assert not out_file.exists()
    report_path = tmp_path / "report.json"
    assert run_cli(capsys, "batch", str(tmp_path), "--report", str(report_path))[0] == 0
    (row,) = json.loads(report_path.read_text())["models"]
    assert row["verdict"] == "error" and row["model"] == name


def test_analyze_rejects_network_file(capsys):
    code, _, err = run_cli(capsys, "analyze", str(MODELS / "idh.crn"))
    assert code == 2


def test_analyze_stoichiometric_ingestion(tmp_path, capsys):
    # N in place of C: a coefficient row basis is derived internally, and
    # the conservation laws enable the multistationarity column in batch
    payload = {
        "N": [[-1, 1, 1, 0, 0, 0],
              [-1, 1, 0, 0, 0, 1],
              [1, -1, -1, -1, 1, 1],
              [0, 0, 1, -1, 1, 0],
              [0, 0, 0, 1, -1, -1]],
        "M": IDH_MATRIX_JSON["M"],
        "mode": "positive",
    }
    d = tmp_path / "models"
    d.mkdir()
    write_json(d, "idh_n.json", payload)
    code, out, _ = run_cli(capsys, "analyze", str(d / "idh_n.json"), "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "toric"
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "batch", str(d), "--report", str(report_path))
    assert code == 0
    row = json.loads(report_path.read_text())["models"][0]
    assert row["verdict"] == "toric"
    assert row["multistationarity"] == "monostationary"
    assert row["acr"] == ["x4"]


def test_analyze_boundary_assertion_flag(tmp_path, capsys):
    # with the user-supplied boundary assertion the matrix-level triangle
    # model reaches the exact count and the toric verdict
    model = write_json(tmp_path, "triangle.json", TRIANGLE_MATRIX_JSON)
    code, out, _ = run_cli(capsys, "analyze", str(model), "--json",
                           "--assume-no-boundary-zeros", "--kappa", "1,1,1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "toric"
    assert payload["coset_count"] == 1
    assert payload["coset_count_kind"] == "exact"
    assert payload["mixed_volume"] == 6
    code, out, _ = run_cli(capsys, "analyze", str(model), "--json")
    assert json.loads(out)["verdict"] == "locally_toric"  # without the assertion


@pytest.mark.parametrize("kappa", ["1,2", "-1,1,1,1"])
@pytest.mark.parametrize("flag", [(), ("--assume-no-boundary-zeros",)], ids=["plain", "assumed"])
def test_analyze_refuses_malformed_kappa(tmp_path, capsys, flag, kappa):
    """A kappa of the wrong length or with an entry <= 0 is refused on
    entry, whether or not the analysis reaches the coset count."""
    model = write_json(tmp_path, "triangle.json", TRIANGLE_MATRIX_JSON)
    code, out, err = run_cli(capsys, "analyze", str(model), f"--kappa={kappa}", *flag)
    assert (code, out) == (3, "")
    assert "kappa must be a strictly positive vector of length m" in err


def test_analyze_real_star_mode(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(MODELS / "sparse_pair.json"),
                           "--mode", "real-star", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "real-star"
    assert payload["verdict"] == "generically_locally_toric"
    assert any("positive mode" in note for note in payload["notes"])


def test_network_idh_acr(capsys):
    code, out, _ = run_cli(capsys, "network", str(MODELS / "idh.crn"), "--acr")
    assert code == 0
    assert "ACR: X4" in out
    assert "verdict: toric" in out


def test_network_straube_multistationarity(capsys):
    code, out, _ = run_cli(capsys, "network", str(MODELS / "reciprocal_regulation.crn"),
                           "--multistationarity")
    assert code == 0
    assert "Multistationary" in out
    assert "verdict: toric" in out


def test_network_shinar_feinberg_reduction(capsys):
    code, out, _ = run_cli(capsys, "network", str(MODELS / "shinar_feinberg.crn"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "toric"
    assert payload["verdict_source"] == "reduced"
    assert same_row_lattice(IntegerMatrix(payload["lifted_A"]), IntegerMatrix([
        [1, 1, 1, 0, 1, 1, 0, 1, 1],
        [0, 0, 0, 1, -1, 0, 0, 0, 0],
    ]))
    assert payload["analysis"]["injectivity"]["toric"] is False
    assert payload["reduced"]["injectivity"]["toric"] is True


def test_network_reduce_flag(capsys):
    path = str(MODELS / "idh.crn")
    _, default, _ = run_cli(capsys, "network", path, "--json")
    code, reduced, _ = run_cli(capsys, "network", path, "--reduce", "--json")
    assert code == 0
    assert reduced == default
    assert json.loads(default)["verdict_source"] == "reduced"
    code, direct, _ = run_cli(capsys, "network", path, "--no-reduce", "--json")
    assert code == 0
    assert json.loads(direct)["verdict_source"] == "direct"


def test_network_structure_flag(capsys):
    code, out, _ = run_cli(capsys, "network", str(MODELS / "idh.crn"), "--structure")
    assert code == 0
    assert "deficiency=1" in out
    assert "linkage-classes=2" in out


def test_network_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.crn"
    path.write_text("A -> -> B", encoding="utf-8")
    code, _, err = run_cli(capsys, "network", str(path))
    assert code == 2
    assert "line 1" in err


GOLDEN_VERDICTS = {
    "homogeneous_surface.json": "not_locally_toric",
    "idh.crn": "toric",
    "reciprocal_regulation.crn": "toric",
    "shinar_feinberg.crn": "toric",
    "sparse_pair.json": "locally_toric",
    "sparse_pair_free.json": "not_locally_toric",
    "square_cycle.crn": "generically_locally_toric",
    "triangle_cycle.crn": "toric",
}


def test_batch_bundled_corpus(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "batch", str(MODELS), "--report", str(report_path))
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["schema"] == 1
    assert len(report["models"]) == 8
    verdicts = {row["model"]: row["verdict"] for row in report["models"]}
    assert verdicts == GOLDEN_VERDICTS
    assert report["summary"]["models"] == 8
    assert report["summary"]["toric"] == 4


def test_batch_corpus_verdicts_under_optimize(tmp_path):
    # python -O strips assert statements: the checks guarding results must
    # not be asserts, and the verdicts must not depend on them
    report_path = tmp_path / "report.json"
    proc = run_python("-O", "-m", "toricity.cli", "batch", str(MODELS),
                      "--report", str(report_path))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(report_path.read_text())
    assert {row["model"]: row["verdict"] for row in report["models"]} == GOLDEN_VERDICTS


def test_batch_runs_without_numpy(tmp_path):
    # numpy is not a runtime dependency: with its import blocked, batch still
    # writes the golden corpus report byte for byte
    report_path = tmp_path / "report.json"
    proc = run_python("-c", "import sys; sys.modules['numpy'] = None; "
                            "from toricity.cli import main; sys.exit(main(sys.argv[1:]))",
                      "batch", str(MODELS), "--report", str(report_path))
    assert proc.returncode == 0, proc.stderr
    golden = Path(__file__).resolve().parent / "data" / "golden" / "batch_report.json"
    assert report_path.read_text(encoding="utf-8") == golden.read_text(encoding="utf-8")


def test_batch_rows_match_single_runs(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    run_cli(capsys, "batch", str(MODELS), "--report", str(report_path))
    report = json.loads(report_path.read_text())
    by_name = {row["model"]: row for row in report["models"]}
    # matrix model: compare against a single analyze run with the same seed
    import zlib

    for name in ("sparse_pair.json", "homogeneous_surface.json"):
        seed = zlib.crc32(name.encode()) & 0xFFFFFFFF
        code, out, _ = run_cli(capsys, "analyze", str(MODELS / name), "--json",
                               "--seed", str(seed))
        assert code == 0
        single = json.loads(out)
        assert single["verdict"] == by_name[name]["verdict"]
        assert single["d"] == by_name[name]["d"]
    for name in ("idh.crn", "triangle_cycle.crn"):
        seed = zlib.crc32(name.encode()) & 0xFFFFFFFF
        code, out, _ = run_cli(capsys, "network", str(MODELS / name), "--json",
                               "--seed", str(seed))
        assert code == 0
        single = json.loads(out)
        assert single["verdict"] == by_name[name]["verdict"]


def test_batch_empty_directory(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "batch", str(empty), "--report", str(report_path))
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["models"] == []
    assert report["summary"] == {"models": 0}


def test_batch_error_row(tmp_path, capsys):
    d = tmp_path / "models"
    d.mkdir()
    (d / "ok.crn").write_text("A <=> B", encoding="utf-8")
    (d / "broken.json").write_text("{ nope", encoding="utf-8")
    (d / "ok2.crn").write_text("2A -> A + B; A + B -> 2B", encoding="utf-8")
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "batch", str(d), "--report", str(report_path))
    assert code == 0
    report = json.loads(report_path.read_text())
    assert len(report["models"]) == 3
    errors = [row for row in report["models"] if row["verdict"] == "error"]
    assert len(errors) == 1 and errors[0]["model"] == "broken.json"


def test_batch_timeout_rows(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "batch", str(MODELS), "--report", str(report_path),
                         "--timeout", "0.000001")
    assert code == 0
    report = json.loads(report_path.read_text())
    assert all(row["verdict"] == "timeout" for row in report["models"])


def test_batch_timeout_rows_parallel(tmp_path, capsys):
    # the worker path: an alarm raised in a worker must not reach the parent
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "batch", str(MODELS), "--report", str(report_path),
                         "--timeout", "0.000001", "--jobs", "2")
    assert code == 0
    report = json.loads(report_path.read_text())
    assert len(report["models"]) == 8
    assert all(row["verdict"] == "timeout" for row in report["models"])


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_batch_timeout_rejected(value):
    proc = run_python("-m", "toricity.cli", "batch", str(MODELS), f"--timeout={value}")
    assert proc.returncode == 2
    assert "argument --timeout" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("value", ["0", "-3"])
def test_batch_jobs_below_one_rejected(capsys, value):
    with pytest.raises(SystemExit) as exit_info:
        main(["batch", str(MODELS), f"--jobs={value}"])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert "argument --jobs" in err and out == ""


def test_batch_jobs_identical(tmp_path, capsys):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    run_cli(capsys, "batch", str(MODELS), "--report", str(r1), "--jobs", "1")
    run_cli(capsys, "batch", str(MODELS), "--report", str(r2), "--jobs", "2")
    assert r1.read_bytes() == r2.read_bytes()


def test_batch_workers_capped_at_model_count(tmp_path, capsys, monkeypatch):
    """``--jobs`` above the number of models asks the pool for one worker
    per model: a forking pool starts every worker at the first submit.  An
    inline stand-in records the request and starts no process."""
    import concurrent.futures
    import shutil

    asked = []

    class InlinePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    models = tmp_path / "models"
    models.mkdir()
    for name in ("idh.crn", "square_cycle.crn", "triangle_cycle.crn"):
        shutil.copy(MODELS / name, models / name)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    r1, r64 = tmp_path / "r1.json", tmp_path / "r64.json"
    run_cli(capsys, "batch", str(models), "--report", str(r64), "--jobs", "64")
    assert asked == [3]
    run_cli(capsys, "batch", str(models), "--report", str(r1), "--jobs", "1")
    assert asked == [3]
    assert r1.read_bytes() == r64.read_bytes()


def test_export_triangle(tmp_path, capsys):
    model = write_json(tmp_path, "triangle.json", TRIANGLE_MATRIX_JSON)
    out_file = tmp_path / "system.txt"
    code, out, _ = run_cli(capsys, "export", str(model), "--kappa", "1,1,1,1",
                           "--out", str(out_file), "--point", "1,1")
    assert code == 0
    text = out_file.read_text()
    lines = text.strip().splitlines()
    polys = lines[lines.index("# polynomials") + 1: lines.index("# linear")]
    linear = lines[lines.index("# linear") + 1:]
    assert len(polys) == 1
    assert len(linear) == 1
    assert linear[0] == "2*x1 + 3*x2 - 5"


def test_export_no_slice(tmp_path, capsys):
    payload = {"C": [["1", "-1"]], "M": [[1, 0]], "mode": "positive"}
    model = write_json(tmp_path, "pointlike.json", payload)
    out_file = tmp_path / "system.txt"
    code, _, _ = run_cli(capsys, "export", str(model), "--kappa", "1,1",
                         "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[-1] == "# linear"  # no linear equations for d = 0


def test_export_wrong_kappa_length(tmp_path, capsys):
    model = write_json(tmp_path, "triangle.json", TRIANGLE_MATRIX_JSON)
    code, _, err = run_cli(capsys, "export", str(model), "--kappa", "1,1,1",
                           "--out", str(tmp_path / "x.txt"))
    assert code == 3


def test_matrix_json_roundtrip(tmp_path):
    from fractions import Fraction

    path = write_json(tmp_path, "model.json", {"C": [["1/3", "-2"], ["0", "7/2"]],
                                               "M": [[1, 0], [0, 5]], "mode": "positive"})
    model = read_model(path)
    assert model.system.C == RationalMatrix([[Fraction(1, 3), -2], [0, Fraction(7, 2)]])
    assert model.system.M == IntegerMatrix([[1, 0], [0, 5]])
    assert model.mode == GroupMode.POSITIVE


def test_console_entry_point():
    proc = run_python("-m", "toricity.cli", "--help")
    assert proc.returncode == 0
    assert "analyze" in proc.stdout and "batch" in proc.stdout
