import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from toricity import analyze_network, cli, parse_network
from toricity.cli import main
from toricity.core import EmptyLocusError, GroupMode, VerticalSystem, analyze
from toricity.crn import NetworkParseError, ZeroDynamicsError
from toricity.exactalg import IntegerMatrix, RationalMatrix
from toricity.fileio import ModelDimensionError, ModelFormatError, parse_rational, read_model

from _oracles import same_row_lattice
from test_families import cascade, multisite

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


def test_empty_C_is_read_at_M_width(tmp_path, capsys):
    """A C with no rows is a system with no equations at M's width: it is
    analysed like the same system written with one zero row.  A C of one
    empty row, and an empty N, stay dimension errors."""
    M = [[1, 2], [0, 1]]
    payloads = []
    for name, C in (("no_rows.json", []), ("zero_row.json", [["0", "0"]])):
        path = write_json(tmp_path, name, {"C": C, "M": M})
        code, out, _ = run_cli(capsys, "analyze", str(path), "--json")
        assert code == 0
        payloads.append(json.loads(out))
        assert payloads[-1].pop("model") == str(path)
    assert payloads[0] == payloads[1]
    for name, payload in (("empty_row.json", {"C": [[]], "M": M}),
                          ("no_species.json", {"N": [], "M": M})):
        code, out, err = run_cli(capsys, "analyze", str(write_json(tmp_path, name, payload)))
        assert (code, out) == (3, "")
        assert "mismatch" in err


def test_empty_M_is_read_at_C_width(tmp_path, capsys):
    """An M with no rows is a system with no species at C's width: it is
    analysed as the library analyses that system, and ``batch`` and
    ``export`` take it too.  Its rank errors and an N over a different
    number of species stay what they were."""
    (tmp_path / "models").mkdir()
    path = write_json(tmp_path / "models", "no_species.json", {"C": [["0", "0"]], "M": []})
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json")
    assert code == 0
    system = VerticalSystem(RationalMatrix([[0, 0]]), IntegerMatrix([], 2))
    assert json.loads(out)["verdict"] == analyze(system).verdict.value == "toric"
    out_file = tmp_path / "export.txt"
    assert run_cli(capsys, "export", str(path), "--kappa", "1,1", "--out", str(out_file))[0] == 0
    report_path = tmp_path / "report.json"
    assert run_cli(capsys, "batch", str(path.parent), "--report", str(report_path))[0] == 0
    [row] = json.loads(report_path.read_text())["models"]
    assert (row["verdict"], row["error"]) == ("toric", None)
    for name, payload, expected in (
            ("rank.json", {"C": [["1", "-1"]], "M": []},
             "error: more independent equations than variables\n"),
            ("species.json", {"N": [[1, -1]], "M": []},
             "error: row mismatch: N has 1 species, M has 0\n")):
        code, out, err = run_cli(capsys, "analyze", str(write_json(tmp_path, name, payload)))
        assert (code, out, err) == (3, "", expected)
    path = write_json(tmp_path, "zero.json", {"N": [], "M": []})
    assert run_cli(capsys, "analyze", str(path))[0] == 2


def test_stoichiometric_row_mismatch(tmp_path, capsys):
    """An N over fewer species than M is a dimension error: ``analyze``
    exits 3 and ``batch`` writes an error row, in place of testing
    multistationarity against laws over the wrong species."""
    payload = {"N": [[-1, 1, 0], [1, -1, 0]], "M": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    path = write_json(tmp_path, "rows.json", payload)
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out) == (3, "")
    assert err == "error: row mismatch: N has 2 species, M has 3\n"
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "batch", str(tmp_path), "--report", str(report_path))
    assert code == 0
    (row,) = json.loads(report_path.read_text())["models"]
    assert (row["verdict"], row["error"]) == ("error", "row mismatch: N has 2 species, M has 3")


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


DIGIT_LIMIT = sys.get_int_max_str_digits()  # Python's limit on int <-> text conversion
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="integer digits are unlimited")


def _one_error_line(err: str) -> str:
    assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err
    return err


def _network_past_digit_limit(tmp_path):
    """A network whose coefficient has more digits than Python converts."""
    path = tmp_path / "huge.crn"
    path.write_text("A <=> B\nB + " + "1" * (DIGIT_LIMIT + 700) + "A -> C\n", encoding="utf-8")
    return path


def _matrix_past_digit_limit(tmp_path):
    """A matrix model with an integer entry of more digits than Python converts."""
    path = tmp_path / "huge.json"
    path.write_text('{"C": [[1, -1]], "M": [[' + "1" * (DIGIT_LIMIT + 700) + ', 0], [0, 1]]}',
                    encoding="utf-8")
    return path


def _network_outgrowing_digit_limit(tmp_path):
    """Coefficients just under the limit, whose mixed volume has more digits.
    The second reaction B -> cA, with its own rate constant, makes the
    steady-state equations not binomials, so ``analyze`` reaches the mixed
    volume."""
    c = "1" * (DIGIT_LIMIT - 300)
    path = tmp_path / "big.crn"
    path.write_text(f"{c}A <=> B\n{c}B <=> A + C\nB -> {c}A\n", encoding="utf-8")
    return path


@needs_digit_limit
def test_network_coefficient_past_digit_limit_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "network", str(_network_past_digit_limit(tmp_path)))
    assert code == 2 and out == ""
    assert _one_error_line(err) == (f"error: line 2, column 5: coefficient of {DIGIT_LIMIT + 700} "
                                    f"digits exceeds the {DIGIT_LIMIT}-digit limit\n")


@needs_digit_limit
def test_analyze_entry_past_digit_limit_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "analyze", str(_matrix_past_digit_limit(tmp_path)))
    assert code == 2 and out == ""
    assert _one_error_line(err) == (f"error: integer of {DIGIT_LIMIT + 700} digits exceeds the "
                                    f"{DIGIT_LIMIT}-digit limit\n")


@needs_digit_limit
def test_analyze_string_entry_past_digit_limit_exits_2(tmp_path, capsys):
    """A rational entry written as a string of more digits than Python
    converts names the limit and shows only the entry's start and length."""
    path = tmp_path / "huge_string.json"
    path.write_text('{"C": [["' + "1" * (DIGIT_LIMIT + 700) + '", -1]], "M": [[1, 0], [0, 1]]}',
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    assert _one_error_line(err) == (f"error: bad matrix 'C': entry '{'1' * 24}'... "
                                    f"({DIGIT_LIMIT + 700} characters) exceeds the "
                                    f"{DIGIT_LIMIT}-digit limit\n")


@needs_digit_limit
@pytest.mark.parametrize("entry", ["1e-10000000", "1e-100000000", "1E+4300", f"1e{DIGIT_LIMIT}"])
def test_analyze_exponent_entry_past_digit_limit_exits_2(tmp_path, capsys, entry):
    """A rational entry in exponent notation whose power of ten has more
    digits than Python converts is refused before ``Fraction`` builds it,
    which took seconds for 1e-10000000."""
    path = tmp_path / "exponent.json"
    path.write_text(f'{{"C": [["{entry}", "-1"]], "M": [[1, 2]]}}', encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    assert _one_error_line(err) == (f"error: bad matrix 'C': entry {entry!r} exceeds the "
                                    f"{DIGIT_LIMIT}-digit limit\n")


@needs_digit_limit
def test_analysis_names_a_mixed_volume_past_digit_limit(tmp_path):
    """The library writes a mixed volume past the limit into its evidence
    and notes as a text naming the limit, where ``str`` would raise; the
    CLI, which prints the number itself, still exits 3 (below)."""
    text = _network_outgrowing_digit_limit(tmp_path).read_text(encoding="utf-8")
    analysis = analyze_network(parse_network(text), GroupMode.POSITIVE, 0)
    report = analysis.report
    assert report.mixed_volume_bound >= 10 ** DIGIT_LIMIT
    text = f"a number of more than {DIGIT_LIMIT} digits"
    assert ("mixed_volume", text) in [(e.test, e.outcome) for e in report.evidence]
    assert report.notes == [f"locally toric with a constant number of cosets, at most {text}"]


def _matrix_outgrowing_digit_limit(tmp_path):
    """The steady states of ``_network_outgrowing_digit_limit`` as a matrix model."""
    c = int("1" * (DIGIT_LIMIT - 300))
    rows = {"N": [[-c, c, 1, -1, c], [1, -1, -c, c, -1], [0, 0, 1, -1, 0]],
            "M": [[c, 0, 0, 1, 0], [0, 1, c, 0, 1], [0, 0, 0, 1, 0]]}
    path = tmp_path / "big.json"
    path.write_text("{" + ", ".join(f'"{key}": [' + ", ".join(
        "[" + ", ".join(map(str, row)) + "]" for row in value) + "]"
        for key, value in rows.items()) + "}", encoding="utf-8")
    return path


@needs_digit_limit
@pytest.mark.parametrize("command", ["network", "network --json", "export",
                                     "analyze", "analyze --json"])
def test_result_number_past_digit_limit_exits_3(tmp_path, capsys, command):
    """Coefficients under the limit are read, and an analysis whose numbers
    outgrow it ends in one error line, not a traceback."""
    make = _matrix_outgrowing_digit_limit if "analyze" in command \
        else _network_outgrowing_digit_limit
    argv = command.split() + [str(make(tmp_path))]
    if command == "export":
        argv += ["--kappa", "1,1,1,1,1", "--out", str(tmp_path / "out.txt")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert _one_error_line(err) == (f"error: a number in the analysis has more than "
                                    f"{DIGIT_LIMIT} digits, too many to write as text\n")


@needs_digit_limit
def test_batch_rows_for_numbers_past_digit_limit(tmp_path, capsys):
    d = tmp_path / "models"
    d.mkdir()
    for make in (_network_past_digit_limit, _matrix_past_digit_limit,
                 _network_outgrowing_digit_limit):
        make(d)
    (d / "ok.crn").write_text("A <=> B", encoding="utf-8")
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "batch", str(d), "--report", str(report_path))
    assert code == 0
    rows = {row["model"]: row for row in json.loads(report_path.read_text())["models"]}
    assert rows["ok.crn"]["verdict"] == "toric"
    assert {name: (row["verdict"], row["error"].split(": ")[-1] if row["error"] else None)
            for name, row in rows.items() if name != "ok.crn"} == {
        "huge.crn": ("error", f"coefficient of {DIGIT_LIMIT + 700} digits exceeds the "
                              f"{DIGIT_LIMIT}-digit limit"),
        "huge.json": ("error", f"integer of {DIGIT_LIMIT + 700} digits exceeds the "
                               f"{DIGIT_LIMIT}-digit limit"),
        "big.crn": ("error", f"a number in the analysis has more than {DIGIT_LIMIT} digits, "
                             "too many to write as text"),
    }
    assert rows["huge.crn"]["error"].startswith("line 2, column 5: ")


def _deeply_nested(tmp_path):
    """A matrix model whose C is 1,000 nested lists: deeper than JSON reads."""
    path = tmp_path / "deep.json"
    path.write_text('{"C": ' + "[" * 1000 + "]" * 1000 + ', "M": [[1]]}', encoding="utf-8")
    return path


@pytest.mark.parametrize("command", ["analyze", "export"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, command):
    argv = [command, str(_deeply_nested(tmp_path))]
    if command == "export":
        argv += ["--kappa", "1", "--out", str(tmp_path / "out.txt")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert _one_error_line(err) == "error: invalid JSON: nested too deeply\n"


def test_deeply_nested_json_is_a_batch_error_row(tmp_path, capsys):
    d = tmp_path / "models"
    d.mkdir()
    _deeply_nested(d)
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "batch", str(d), "--report", str(report_path))
    assert code == 0
    [row] = json.loads(report_path.read_text())["models"]
    assert (row["verdict"], row["error"]) == ("error", "invalid JSON: nested too deeply")


def test_entry_nested_too_deeply_to_show():
    """A nested entry that JSON read but that is too deep to write back is
    named by its kind in the error, not shown."""
    entry = []
    for _ in range(100_000):
        entry = [entry]
    with pytest.raises(ModelFormatError, match="^not a rational: a list nested too deeply$"):
        parse_rational(entry)


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


def test_batch_unwritable_report_exits_2(tmp_path, capsys):
    """A report path in a missing directory, or one that is a directory,
    is reported after the table, exit 2, with one error line."""
    d = tmp_path / "models"
    d.mkdir()
    (d / "ok.crn").write_text("A <=> B", encoding="utf-8")
    for report in (tmp_path / "no" / "r.json", tmp_path):
        code, out, err = run_cli(capsys, "batch", str(d), "--report", str(report))
        assert code == 2
        assert out.startswith("ok.crn") and out.endswith("total: 1 models\n")
        assert str(report) in _one_error_line(err)
    assert not (tmp_path / "no").exists()


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


def test_export_unwritable_out_exits_2(tmp_path, capsys):
    model = write_json(tmp_path, "triangle.json", TRIANGLE_MATRIX_JSON)
    code, out, err = run_cli(capsys, "export", str(model), "--kappa", "1,1,1,1",
                             "--out", str(tmp_path / "no" / "system.txt"))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "system.txt" in err


def test_export_wrong_kappa_length(tmp_path, capsys):
    model = write_json(tmp_path, "triangle.json", TRIANGLE_MATRIX_JSON)
    code, _, err = run_cli(capsys, "export", str(model), "--kappa", "1,1,1",
                           "--out", str(tmp_path / "x.txt"))
    assert code == 3


@pytest.mark.parametrize("flag", ["--kappa", "--point"])
def test_export_malformed_rational_exits_2(tmp_path, capsys, flag):
    """A value that is not a rational is a parse error for either flag."""
    model = write_json(tmp_path, "triangle.json", TRIANGLE_MATRIX_JSON)
    values = {"--kappa": "1,1,1,1", "--point": "1,1", flag: "abc"}
    code, out, err = run_cli(capsys, "export", str(model), "--out", str(tmp_path / "x.txt"),
                             *(f"{k}={v}" for k, v in values.items()))
    assert (code, out) == (2, "")
    assert "not a rational: 'abc'" in err
    assert not (tmp_path / "x.txt").exists()


# -- one exit-code map --------------------------------------------------------


RAISED = [
    pytest.param(ModelFormatError("bad model"), 2, "bad model", id="ModelFormatError"),
    pytest.param(NetworkParseError("bad token", 1, 2), 2, "line 1, column 2: bad token",
                 id="NetworkParseError"),
    pytest.param(OSError("disk gone"), 2, "disk gone", id="OSError"),
    pytest.param(ModelDimensionError("C has 2 columns"), 3, "C has 2 columns",
                 id="ModelDimensionError"),
    pytest.param(ZeroDynamicsError("no dynamics"), 3, "no dynamics", id="ZeroDynamicsError"),
    pytest.param(EmptyLocusError("empty locus"), 3, "empty locus", id="EmptyLocusError"),
    pytest.param(ValueError("precondition"), 3, "precondition", id="ValueError"),
    pytest.param(ValueError("Exceeds the limit (4300 digits) for integer string conversion"),
                 3, f"a number in the analysis has more than {DIGIT_LIMIT} digits, "
                 "too many to write as text", id="digit-limit"),
]


def _command_raising(tmp_path, monkeypatch, command, exc):
    """argv for ``command`` on a model it accepts, with its analysis call
    patched to raise ``exc``."""
    target, argv = {
        "analyze": ("analyze", ["analyze", str(MODELS / "sparse_pair.json")]),
        "network": ("analyze_network", ["network", str(MODELS / "idh.crn")]),
        "export": ("coset_counting_system",
                   ["export", str(write_json(tmp_path, "t.json", TRIANGLE_MATRIX_JSON)),
                    "--kappa", "1,1,1,1", "--out", str(tmp_path / "x.txt")]),
    }[command]

    def raising(*args, **kwargs):
        raise exc
    monkeypatch.setattr(cli, target, raising)
    return argv


@pytest.mark.parametrize("command", ["analyze", "network", "export"])
@pytest.mark.parametrize("exc, code, message", RAISED)
def test_main_maps_each_error_to_one_exit_code(tmp_path, capsys, monkeypatch,
                                               command, exc, code, message):
    """Every command reports the same error class with the same exit code
    and one error line."""
    argv = _command_raising(tmp_path, monkeypatch, command, exc)
    assert run_cli(capsys, *argv) == (code, "", f"error: {message}\n")
    assert not (tmp_path / "x.txt").exists()


@pytest.mark.parametrize("command", ["analyze", "network", "export"])
def test_main_lets_other_errors_propagate(tmp_path, monkeypatch, command):
    argv = _command_raising(tmp_path, monkeypatch, command, RuntimeError("bug"))
    with pytest.raises(RuntimeError, match="bug"):
        main(argv)


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


# -- fuzz gate ---------------------------------------------------------------


FUZZ_NETWORK_TEXTS = [p.read_text() for p in sorted(MODELS.glob("*.crn"))] \
    + [multisite(k) for k in (1, 2)] + [cascade(k) for k in (1, 2)]
FUZZ_MATRIX_MODELS = [json.loads(p.read_text()) for p in sorted(MODELS.glob("*.json"))] \
    + [IDH_MATRIX_JSON, TRIANGLE_MATRIX_JSON]


@st.composite
def _mutated_network(draw) -> bytes:
    """A reaction network text with tokens dropped, doubled or swapped,
    coefficients made huge or zero, and stray bytes put in."""
    tokens = re.findall(r"\S+|\s+", draw(st.sampled_from(FUZZ_NETWORK_TEXTS)))
    words = [k for k, t in enumerate(tokens) if not t.isspace()]
    for _ in range(draw(st.integers(0, 2))):
        k, other = draw(st.sampled_from(words)), draw(st.sampled_from(words))
        kind = draw(st.sampled_from(["drop", "double", "swap", "huge", "zero"]))
        if kind == "drop":
            tokens[k] = ""
        elif kind == "double":
            tokens[k] += " " + tokens[k]
        elif kind == "swap":
            tokens[k], tokens[other] = tokens[other], tokens[k]
        else:
            digits = "0" if kind == "zero" else "1" + "0" * draw(st.sampled_from([6, 30, 5000]))
            tokens[k] = digits + tokens[k].lstrip("0123456789")
    data = "".join(tokens).encode("utf-8")
    for _ in range(draw(st.integers(0, 1))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=3)) + data[at:]
    return data


_WRONG_VALUES = [None, True, 5, -1, 1.5, "", "x", "1/2", "1/0", [], [[]], {}, [{"a": 1}]]


@st.composite
def _mutated_matrix_model(draw) -> bytes:
    """A JSON matrix model with empty rows, zero columns, negative or
    non-integer exponents, mismatched widths, unknown modes, values of the
    wrong type or deep nesting."""
    model = copy.deepcopy(draw(st.sampled_from(FUZZ_MATRIX_MODELS)))
    nested = {}
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(["C", "M"]))
        rows = model.get(key)
        kind = draw(st.sampled_from(["empty_row", "zero_columns", "exponent", "width", "mode",
                                     "type", "nest"]))
        if kind == "mode":
            model["mode"] = draw(st.sampled_from(["complex", "POSITIVE", "real-star", 0, None]))
        elif kind == "type":
            model[key] = draw(st.sampled_from(_WRONG_VALUES))
        elif kind == "nest":  # written as text, past the depth JSON reads back
            depth = draw(st.integers(1, 2000))
            nested["@"] = "[" * depth + json.dumps(rows) + "]" * depth
            model[key] = "@"
        elif not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
            continue
        elif kind == "zero_columns":
            model[key] = [[] for _ in rows]
        else:
            i = draw(st.integers(0, len(rows) - 1))
            if kind == "empty_row":
                rows[i] = []
            elif kind == "width":
                rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + rows[i][:1]
            elif rows[i]:
                j = draw(st.integers(0, len(rows[i]) - 1))
                rows[i][j] = draw(st.sampled_from([-1, -7, 2.5, "3", 10 ** 30, 0] + _WRONG_VALUES))
    text = json.dumps(model)
    if "@" in nested:
        text = text.replace('"@"', nested["@"])
    return text.encode("utf-8")


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["analyze", "network", "batch", "export"]), st.data())
def test_cli_fuzz_exits_cleanly(command, data):
    """Malformed models never crash the command line: every run exits 0,
    2 or 3 with no traceback, and a nonzero exit prints one error line."""
    network = command == "network" or command != "analyze" and data.draw(st.booleans())
    suffix, model = (".crn", _mutated_network()) if network else (".json", _mutated_matrix_model())
    kappa = ",".join(["3/2"] * data.draw(st.integers(1, 8)))
    as_json = data.draw(st.booleans())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "models" / f"model{suffix}"
        path.parent.mkdir()
        path.write_bytes(data.draw(model))
        argv = {"analyze": ["analyze", str(path)],
                "network": ["network", str(path)],
                "batch": ["batch", str(path.parent), "--timeout", "20",
                          "--report", str(Path(tmp) / "report.json")],
                "export": ["export", str(path), "--kappa", kappa,
                           "--out", str(Path(tmp) / "system.txt")]}[command]
        if as_json and command in ("analyze", "network"):
            argv.append("--json")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert len(errors) == (code != 0), err.getvalue()
