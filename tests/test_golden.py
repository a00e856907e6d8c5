"""Byte-for-byte golden outputs of the CLI on the bundled corpus.

The fixtures under ``tests/data/golden/`` hold the ``batch --report`` of the
bundled corpus, ``analyze --json`` of each matrix model and ``network --json``
of each network, all at the default seed.  ``network_multisite_2.json`` pins
one more reduction, of the two-site phosphorylation network with its four
intermediates; it is written from ``test_families.multisite(2)`` into the
work directory, so the bundled corpus keeps its eight models.  Only the
``model`` path, which depends on where the checkout lives, is replaced by the
file name.

``tests/data/output_digests.json`` pins more outputs by their sha256:
``network --json`` and ``network --no-reduce --json`` on the multisite and
cascade families and on the bench's ``screen`` networks, and ``analyze
--json`` in the real-star and complex-star modes on each matrix model.  It
pins the text renderer too: text ``network`` on the same networks and, with
``--structure --acr --multistationarity``, on each bundled network; text
``analyze`` in each mode on each matrix model, and once more with a
``--kappa`` of the model's own length and ``--assume-no-boundary-zeros``.  It
pins the ``batch`` row of each digest network as well, from
``cli.run_batch_model`` at the seed ``batch`` gives the file.  It lives
outside ``golden/``, whose file set ``test_golden_fixture_set`` pins.
A change to ``bench/generators.screen`` must rewrite it.

To rewrite every expected output from the current code, after an output
change has been agreed on::

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from toricity import cli, core, polyring
from toricity.cli import main
from toricity.fileio import read_model

from test_bench_contract import _load_bench
from test_families import cascade, multisite

MODELS = Path(__file__).resolve().parents[1] / "src" / "toricity" / "data" / "models"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
DIGESTS = Path(__file__).resolve().parent / "data" / "output_digests.json"

MATRIX_MODELS = sorted(p.name for p in MODELS.glob("*.json"))
NETWORK_MODELS = sorted(p.name for p in MODELS.glob("*.crn"))
FIXTURES = (["batch_report.json"]
            + [f"analyze_{Path(n).stem}.json" for n in MATRIX_MODELS]
            + [f"network_{Path(n).stem}.json" for n in NETWORK_MODELS]
            + ["network_multisite_2.json"])


def _run(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def _json_output(command: str, path: Path, *flags: str) -> str:
    payload = json.loads(_run(command, str(path), "--json", *flags))
    payload["model"] = path.name
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _text_output(command: str, path: Path, *flags: str) -> str:
    return _run(command, str(path), *flags).replace(str(path), path.name)


def golden_outputs(workdir: Path) -> dict[str, str]:
    """Every golden output, keyed by its fixture file name."""
    report = workdir / "report.json"
    _run("batch", str(MODELS), "--report", str(report))
    outputs = {"batch_report.json": report.read_text(encoding="utf-8")}
    for name in MATRIX_MODELS:
        outputs[f"analyze_{Path(name).stem}.json"] = _json_output("analyze", MODELS / name)
    for name in NETWORK_MODELS:
        outputs[f"network_{Path(name).stem}.json"] = _json_output("network", MODELS / name)
    network = workdir / "multisite_2.crn"
    network.write_text(multisite(2), encoding="utf-8")
    outputs["network_multisite_2.json"] = _json_output("network", network)
    return outputs


def _digest_networks() -> dict[str, str]:
    """The networks of the digest table by name: multisite 1-4, cascade 1-3
    and the ``screen`` workload's networks."""
    networks = {f"multisite_{k}": multisite(k) for k in range(1, 5)}
    networks.update((f"cascade_{k}", cascade(k)) for k in range(1, 4))
    # the population of bench/run.py's ``Screen`` workload, less its three left-out networks
    for index, text in enumerate(_load_bench("generators").screen(20241122, 120)):
        if index not in (6, 21, 78):
            networks[f"screen_{index}"] = text
    return networks


def output_digests(workdir: Path) -> dict[str, str]:
    """The sha256 of each output the digest table pins, keyed by command."""
    outputs = {}
    for name, text in _digest_networks().items():
        path = workdir / f"{name}.crn"
        path.write_text(text, encoding="utf-8")
        outputs[f"network {name}"] = _json_output("network", path)
        outputs[f"network --no-reduce {name}"] = _json_output("network", path, "--no-reduce")
        outputs[f"text network {name}"] = _text_output("network", path)
        row = cli.run_batch_model(str(path), cli._model_seed(0, path.name), 0)
        outputs[f"batch row {name}"] = json.dumps(row, indent=2, sort_keys=True) + "\n"
    every_line = ("--structure", "--acr", "--multistationarity")
    for name in NETWORK_MODELS:
        outputs[f"text network {' '.join(every_line)} {name}"] = _text_output(
            "network", MODELS / name, *every_line)
    for name in MATRIX_MODELS:
        for mode in ("real-star", "complex-star"):
            outputs[f"analyze --mode {mode} {name}"] = _json_output("analyze", MODELS / name,
                                                                    "--mode", mode)
        for mode in ("positive", "real-star", "complex-star"):
            outputs[f"text analyze --mode {mode} {name}"] = _text_output(
                "analyze", MODELS / name, "--mode", mode)
        kappa = ",".join(str(k) for k in range(1, read_model(MODELS / name).system.m + 1))
        outputs[f"text analyze --kappa {kappa} --assume-no-boundary-zeros {name}"] = \
            _text_output("analyze", MODELS / name, "--kappa", kappa, "--assume-no-boundary-zeros")
    return {key: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for key, text in outputs.items()}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return golden_outputs(tmp_path_factory.mktemp("golden"))


def test_golden_fixture_set(outputs):
    assert len(MATRIX_MODELS) == 3 and len(NETWORK_MODELS) == 5
    assert sorted(outputs) == sorted(FIXTURES)
    assert sorted(FIXTURES) == sorted(p.name for p in GOLDEN.iterdir())


@pytest.mark.parametrize("name", FIXTURES)
def test_golden_output(outputs, name):
    assert outputs[name] == (GOLDEN / name).read_text(encoding="utf-8")


def test_output_digests(tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    digests = output_digests(tmp_path)
    assert sorted(digests) == sorted(expected)
    assert [key for key in expected if digests[key] != expected[key]] == []


def test_determinants_decoded_only_when_rendered(monkeypatch, tmp_path):
    """Batch rows read no determinant's terms; the JSON reports decode each
    one when rendering it, and still give the fixtures."""
    decoded = []  # for each decode, whether it happened inside ``render``
    rendering = False
    unpack = polyring._unpack
    monkeypatch.setattr(polyring, "_unpack", lambda *args: decoded.append(rendering) or unpack(*args))
    for name in MATRIX_MODELS + NETWORK_MODELS:
        row = cli.run_batch_model(str(MODELS / name), cli._model_seed(0, name), 0)
        assert row["verdict"] not in ("error", "timeout"), row
    assert decoded == []

    def flagged(p, _render=core.render):
        nonlocal rendering
        rendering = True
        try:
            return _render(p)
        finally:
            rendering = False
    monkeypatch.setattr(core, "render", flagged)
    outputs = golden_outputs(tmp_path)
    assert decoded and all(decoded)
    for name in FIXTURES:
        assert outputs[name] == (GOLDEN / name).read_text(encoding="utf-8"), name


def write_expected_outputs():
    """Rewrite the golden fixtures and the digest table from the current code."""
    with tempfile.TemporaryDirectory() as work:
        for name, text in golden_outputs(Path(work)).items():
            (GOLDEN / name).write_text(text, encoding="utf-8")
        digests = output_digests(Path(work))
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    write_expected_outputs()
