"""Byte-for-byte golden outputs of the CLI on the bundled corpus.

The fixtures under ``tests/data/golden/`` hold the ``batch --report`` of the
bundled corpus, ``analyze --json`` of each matrix model and ``network --json``
of each network, all at the default seed.  ``network_multisite_2.json`` pins
one more reduction, of the two-site phosphorylation network with its four
intermediates; it is written from ``test_families.multisite(2)`` into the
work directory, so the bundled corpus keeps its eight models.  Only the
``model`` path, which depends on where the checkout lives, is replaced by the
file name.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from toricity import cli, core, polyring
from toricity.cli import main

from test_families import multisite

MODELS = Path(__file__).resolve().parents[1] / "src" / "toricity" / "data" / "models"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

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


def _json_output(command: str, path: Path) -> str:
    payload = json.loads(_run(command, str(path), "--json"))
    payload["model"] = path.name
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


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


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("TORICITY_SEED", raising=False)
        return golden_outputs(tmp_path_factory.mktemp("golden"))


def test_golden_fixture_set(outputs):
    assert len(MATRIX_MODELS) == 3 and len(NETWORK_MODELS) == 5
    assert sorted(outputs) == sorted(FIXTURES)
    assert sorted(FIXTURES) == sorted(p.name for p in GOLDEN.iterdir())


@pytest.mark.parametrize("name", FIXTURES)
def test_golden_output(outputs, name):
    assert outputs[name] == (GOLDEN / name).read_text(encoding="utf-8")


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
    monkeypatch.delenv("TORICITY_SEED", raising=False)
    outputs = golden_outputs(tmp_path)
    assert decoded and all(decoded)
    for name in FIXTURES:
        assert outputs[name] == (GOLDEN / name).read_text(encoding="utf-8"), name
