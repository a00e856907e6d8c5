"""Model file ingestion.

Two input formats: matrix JSON ({"C": [["1","-1",...],...], "M": [[...]],
"mode": "positive"}, with rational entries as integers or "p/q" strings,
or {"N": ...} from which a coefficient row basis is derived) and reaction
network text in the grammar of the parser.
"""

from __future__ import annotations

import json
import re
import sys
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


_SHOWN = 24  # characters of a long bad entry that its error repeats


def _shown(value) -> str:
    """A bad entry as its error names it: whole when short, else its first
    characters and its length."""
    try:
        text = value if isinstance(value, str) else repr(value)
    except RecursionError:  # lists nested about as deep as JSON reads them
        return f"a {type(value).__name__} nested too deeply"
    if len(text) <= _SHOWN:
        return repr(value)
    head = repr(text[:_SHOWN]) if isinstance(value, str) else text[:_SHOWN]
    return f"{head}... ({len(text)} characters)"


# a decimal in exponent notation, as ``Fraction`` reads it; group 1 is the exponent
_EXPONENT = re.compile(r"\s*[-+]?(?=\d|\.\d)[\d_]*(?:\.[\d_]*)?e([-+]?\d[\d_]*)\s*\Z",
                       re.IGNORECASE)


def _exponent_past_limit(text: str, limit: int) -> bool:
    """Whether ``text`` has an exponent e with |e| >= ``limit``, so that
    10^|e|, a factor of its numerator or denominator, has more digits
    than ``limit``; ``Fraction`` would spend seconds building it."""
    match = _EXPONENT.match(text)
    if match is None:
        return False
    digits = match[1].lstrip("+-").replace("_", "").lstrip("0")
    return len(digits) > len(str(limit)) or int(digits or "0") >= limit


def _past_limit(text: str) -> ModelFormatError:
    return ModelFormatError(f"entry {_shown(text)} exceeds the "
                            f"{sys.get_int_max_str_digits()}-digit limit")


def parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise ModelFormatError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        limit = sys.get_int_max_str_digits()
        if limit and _exponent_past_limit(value, limit):
            raise _past_limit(value)
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            if str(exc).startswith("Exceeds the limit"):  # more digits than Python converts
                raise _past_limit(value) from None
            raise ModelFormatError(f"not a rational: {_shown(value)}") from exc
    raise ModelFormatError(f"not a rational: {_shown(value)}")


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
    if "C" in data:  # a C with no rows, no equations, has M's width
        C = _matrix(data, "C", lambda rows: RationalMatrix(
            [[parse_rational(x) for x in row] for row in rows], None if rows else M.cols))
    elif "N" in data:
        N = _matrix(data, "N", IntegerMatrix)
        if N.rows != M.rows:
            raise ModelDimensionError(
                f"row mismatch: N has {N.rows} species, M has {M.rows}")
        C = N.row_basis()
        if C.rows == 0:
            raise ModelFormatError("stoichiometric matrix is zero")
    else:
        raise ModelFormatError("matrix model needs 'C' or 'N'")
    if not M.rows:  # an M with no rows, no species, has C's width
        M = IntegerMatrix([], C.cols)
    if C.cols != M.cols:
        raise ModelDimensionError(
            f"column mismatch: C has {C.cols} columns, M has {M.cols}")
    try:
        system = VerticalSystem(C, M)
    except ValueError as exc:
        raise ModelDimensionError(str(exc)) from exc
    return ModelInput("matrix", system, None, N, mode)


def _json_int(literal: str) -> int:
    try:
        return int(literal)
    except ValueError:  # more digits than Python converts
        raise ModelFormatError(
            f"integer of {len(literal.lstrip('-'))} digits exceeds the "
            f"{sys.get_int_max_str_digits()}-digit limit") from None


def read_model(path: str | Path) -> ModelInput:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"not UTF-8 text: {exc}") from exc
    stripped = text.lstrip()
    if path.suffix == ".json" or stripped.startswith("{"):
        try:
            data = json.loads(text, parse_int=_json_int)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"invalid JSON: {exc}") from exc
        except RecursionError:
            raise ModelFormatError("invalid JSON: nested too deeply") from None
        if not isinstance(data, dict):
            raise ModelFormatError("matrix model must be a JSON object")
        return load_matrix_model(data)
    net = parse_network(text)
    return ModelInput("network", None, net, None, GroupMode.POSITIVE)
