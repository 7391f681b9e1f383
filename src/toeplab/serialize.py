"""JSON input/output for symbols and deterministic report rendering.

Input formats
-------------
Matrix symbol (scalar symbols use ``dim`` 1)::

    {"dim": d, "coeffs": {"n": [[[re, im], ...], ...]}}

with canonical string integer keys ``n`` ("-2", "0", "3"; not "+3" or
"03") and row-major d x d matrices of [re, im] pairs.  Circulant symbol::

    {"circulant": n, "row": [<scalar symbol>, ...]}

Both parse to a ``MatrixSymbol``, a circulant object to a ``CirculantSymbol``.

Reports are rendered with a tiny JSON emitter so that every float is printed
with 17 significant digits and the output is byte-stable across runs.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any

import numpy as np

from .circulant import CirculantSymbol
from .symbols import MatrixSymbol, ScalarSymbol


class SymbolFormatError(ValueError):
    """Input file or object does not match the symbol schema."""


def _is_count(value: Any) -> bool:
    """A positive JSON integer; ``true`` is not a count."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


# The most characters of an input value an error message echoes.
_ECHO_LIMIT = 80


def _shown(value: Any) -> str:
    """``repr(value)``, cut to ``_ECHO_LIMIT`` characters ending in "…", so
    that one malformed value cannot flood the error message."""
    text = repr(value)
    return text if len(text) <= _ECHO_LIMIT else text[:_ECHO_LIMIT - 1] + "…"


def _as_complex(value: Any, where: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    ):
        raise SymbolFormatError(f"{where}: expected an [re, im] pair, got {_shown(value)}")
    try:
        real, imag = float(value[0]), float(value[1])
    except OverflowError:
        raise SymbolFormatError(f"{where}: {_shown(value)} is out of float range") from None
    if not (math.isfinite(real) and math.isfinite(imag)):
        raise SymbolFormatError(f"{where}: expected finite numbers, got {_shown(value)}")
    return complex(real, imag)


def _as_index(key: Any, where: str) -> int:
    """A coefficient key in canonical form: ``str(int(key)) == key``, so that
    "01", "+1", " 1" and "1_0" are refused rather than read as another key's
    index, which would silently drop one of the two coefficients."""
    try:
        n = int(key)
    except (TypeError, ValueError):
        n = None
    if n is None or str(n) != key:
        raise SymbolFormatError(f"{where}: coefficient key {_shown(key)} is not a canonical integer")
    return n


def _blocks(obj: Any) -> tuple[int, dict[int, list[list[complex]]]]:
    """The size d and the d x d coefficient blocks, as lists of rows, of a
    symbol object, with every schema check of both parsers."""
    if not isinstance(obj, dict) or "dim" not in obj:
        raise SymbolFormatError("symbol object must be a dict with a 'dim' field")
    dim = obj["dim"]
    if not _is_count(dim):
        raise SymbolFormatError(f"'dim' must be a positive integer, got {_shown(dim)}")
    coeffs_obj = obj.get("coeffs", {})
    if not isinstance(coeffs_obj, dict):
        raise SymbolFormatError("'coeffs' must be an object keyed by integer strings")
    blocks: dict[int, list[list[complex]]] = {}
    for key, rows in coeffs_obj.items():
        n = _as_index(key, "coeffs")
        at = f"coeffs[{_shown(key)}]"
        if not isinstance(rows, list) or len(rows) != dim:
            raise SymbolFormatError(f"{at}: expected {dim} rows")
        block = []
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != dim:
                raise SymbolFormatError(f"{at} row {i}: expected {dim} entries")
            block.append([_as_complex(pair, f"{at}[{i}][{j}]") for j, pair in enumerate(row)])
        blocks[n] = block
    return dim, blocks


def parse_matrix(obj: Any) -> MatrixSymbol:
    return MatrixSymbol(*_blocks(obj))


def parse_scalar(obj: Any) -> ScalarSymbol:
    """A dim 1 symbol object read straight into a ``ScalarSymbol``, bitwise
    ``parse_matrix(obj).entry(0, 0)`` and refused with the same errors."""
    dim, blocks = _blocks(obj)
    if dim != 1:
        raise SymbolFormatError(f"expected a scalar symbol (dim 1), got dim {dim}")
    try:
        return ScalarSymbol({n: block[0][0] for n, block in blocks.items()})
    except ValueError:
        # a modulus beyond the float range: raise the matrix symbol's message
        return parse_matrix(obj).entry(0, 0)


def parse_circulant(obj: Any) -> CirculantSymbol:
    if not isinstance(obj, dict) or "circulant" not in obj:
        raise SymbolFormatError("circulant object must be a dict with a 'circulant' field")
    n = obj["circulant"]
    if not _is_count(n):
        raise SymbolFormatError(f"'circulant' must be a positive integer size, got {_shown(n)}")
    row_obj = obj.get("row")
    if not isinstance(row_obj, list) or len(row_obj) != n:
        raise SymbolFormatError(f"'row' must be a list of {n} scalar symbols")
    return CirculantSymbol([parse_scalar(x) for x in row_obj])


def parse_input(obj: Any) -> MatrixSymbol:
    """Dispatch on the two accepted top-level forms."""
    if isinstance(obj, dict) and "circulant" in obj:
        return parse_circulant(obj)
    return parse_matrix(obj)


def load_input(path: str) -> MatrixSymbol:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SymbolFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno} (char {exc.pos})"
        ) from exc
    except RecursionError:
        raise SymbolFormatError(f"{path}: JSON nested too deeply") from None
    except OSError as exc:
        raise SymbolFormatError(f"{path}: {exc.strerror or exc}") from exc
    return parse_input(obj)


def complex_pair(c: complex) -> list[float]:
    return [float(c.real), float(c.imag)]


def scalar_to_json(phi: ScalarSymbol) -> dict:
    return {
        "dim": 1,
        "coeffs": {str(n): [[complex_pair(c)]] for n, c in phi.items()},
    }


def circulant_to_json(c: CirculantSymbol) -> dict:
    return {"circulant": c.n, "row": [scalar_to_json(phi) for phi in c.row]}


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# What ``json.dumps`` runs on a string with its default arguments.
_quote = json.encoder.encode_basestring_ascii


def _render(value: Any, parts: list[str]) -> None:
    if value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, str):
        parts.append(_quote(value))
    elif isinstance(value, (np.integer, int)):
        parts.append(str(int(value)))
    elif isinstance(value, (np.floating, float)):
        x = float(value)
        if not math.isfinite(x):
            raise ValueError(f"cannot render non-finite float {x!r}")
        parts.append(format(x, ".17g"))
    elif isinstance(value, (complex, np.complexfloating)):
        _render(complex_pair(complex(value)), parts)
    elif isinstance(value, dict):
        parts.append("{")
        for i, (k, v) in enumerate(value.items()):
            if i:
                parts.append(", ")
            parts.append(_quote(str(k)))
            parts.append(": ")
            _render(v, parts)
        parts.append("}")
    elif isinstance(value, (list, tuple)):
        parts.append("[")
        for i, v in enumerate(value):
            if i:
                parts.append(", ")
            _render(v, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot render {type(value).__name__} into a report")


def render_json(value: Any) -> str:
    """Serialize a report to JSON with floats at 17 significant digits."""
    parts: list[str] = []
    _render(value, parts)
    return "".join(parts)

