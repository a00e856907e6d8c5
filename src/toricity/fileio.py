"""Model file ingestion.

Two input formats: matrix JSON ({"C": [["1","-1",...],...], "M": [[...]],
"mode": "positive"}, with rational entries as integers or "p/q" strings,
or {"N": ...} from which a coefficient row basis is derived) and reaction
network text in the grammar of the parser.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .core import GroupMode, VerticalSystem
from .crn import ReactionNetwork, parse_network
from .exactalg import IntegerMatrix, RationalMatrix


class ModelFormatError(ValueError):
    pass


class ModelDimensionError(ValueError):
    """Structurally valid input whose matrix shapes are inconsistent."""


@dataclass
class ModelInput:
    kind: str                        # "matrix" | "network"
    system: VerticalSystem | None
    network: ReactionNetwork | None
    stoichiometric: IntegerMatrix | None   # N when available
    mode: GroupMode


def parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise ModelFormatError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelFormatError(f"not a rational: {value!r}") from exc
    raise ModelFormatError(f"not a rational: {value!r}")


def _matrix(data: dict, key: str, make):
    """The matrix under ``key``, built by ``make``; a malformed one (not a
    list of rows, ragged, or with an entry of the wrong kind, a bool
    included) is a ModelFormatError."""
    rows = data[key]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ModelFormatError(f"matrix {key!r} must be a list of rows")
    if any(isinstance(x, bool) for row in rows for x in row):
        raise ModelFormatError(f"matrix {key!r} holds a boolean entry")
    try:
        return make(rows)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"bad matrix {key!r}: {exc}") from exc


def load_matrix_model(data: dict) -> ModelInput:
    if "M" not in data:
        raise ModelFormatError("matrix model needs an exponent matrix 'M'")
    M = _matrix(data, "M", IntegerMatrix)
    text = data.get("mode")
    try:
        mode = GroupMode.POSITIVE if text is None else GroupMode(text)
    except ValueError:
        raise ModelFormatError(f"unknown mode {text!r}") from None
    N = None
    if "C" in data:
        C = _matrix(data, "C", lambda rows: RationalMatrix(
            [[parse_rational(x) for x in row] for row in rows]))
    elif "N" in data:
        N = _matrix(data, "N", IntegerMatrix)
        C = N.row_basis()
        if C.rows == 0:
            raise ModelFormatError("stoichiometric matrix is zero")
    else:
        raise ModelFormatError("matrix model needs 'C' or 'N'")
    if C.cols != M.cols:
        raise ModelDimensionError(
            f"column mismatch: C has {C.cols} columns, M has {M.cols}")
    try:
        system = VerticalSystem(C, M)
    except ValueError as exc:
        raise ModelDimensionError(str(exc)) from exc
    return ModelInput("matrix", system, None, N, mode)


def read_model(path: str | Path) -> ModelInput:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"not UTF-8 text: {exc}") from exc
    stripped = text.lstrip()
    if path.suffix == ".json" or stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ModelFormatError("matrix model must be a JSON object")
        return load_matrix_model(data)
    net = parse_network(text)
    return ModelInput("network", None, net, None, GroupMode.POSITIVE)
