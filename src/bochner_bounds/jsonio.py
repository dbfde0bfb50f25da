"""The package's wire codec: number arrays in, deterministic JSON text out.

Decoding.  Documents carry numbers as JSON numbers and complex numbers as
``[re, im]`` pairs.  :func:`decode_floats` and :func:`decode_pairs` turn a
rectangular nested list of them into one numpy array, checking each nesting
level at once (``set(map(len, ...))`` for the widths, ``set(map(type, ...))``
for the leaves) and converting all leaves in a single ``np.fromiter``.  The
rule: leaves are ``int`` or ``float`` (not strings, booleans or ``null``),
every row of a level shares one width of at least 1, pairs have exactly two
numbers, and an integer too large for a float is an error, not a crash.

Encoding.  :func:`encode_pairs` is the inverse of :func:`decode_pairs` and
returns plain lists.  :func:`dumps` fixes every float at 17 significant
digits (``json.dumps`` would leave it to ``repr``), so that identical inputs
produce byte-identical output files.  A rectangular nested list of finite
``float`` leaves is rendered with one ``%`` on a template built from its
shape; everything else is rendered item by item, with the same bytes.  Dict
keys keep insertion order (the schemas fix it).  Negative zero is written
``-0.0``, which ``json.load`` reads back as a signed float (``-0`` would be
the integer 0).  :func:`dumps_csv` writes the scalar fields of a report as
a CSV header and row, with the same numbers.
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

__all__ = ["dumps", "dumps_csv", "decode_floats", "decode_pairs", "encode_pairs", "SchemaError"]

_NUMBER_TYPES = frozenset((int, float))
_PAIR_RULE = "expected [re, im] pairs of two numbers"


class SchemaError(ValueError):
    """Malformed input document; the message names the offending field."""


def _decode(raw, ndim: int, pairs: bool) -> np.ndarray:
    level, shape = [raw], []
    for depth in range(ndim):
        is_pair = pairs and depth == ndim - 1
        if set(map(type, level)) != {list}:
            shape_rule = "expected a list" if depth == 0 else "expected lists of rows"
            raise ValueError(_PAIR_RULE if is_pair else shape_rule)
        widths = set(map(len, level))
        if is_pair:
            if widths != {2}:
                raise ValueError(_PAIR_RULE)
        elif depth and (len(widths) != 1 or 0 in widths):
            raise ValueError("rows must share one dimension of at least 1")
        shape.append(widths.pop())
        level = list(chain.from_iterable(level))
        if not level:  # an empty top-level list: nothing below it to check
            shape += [0] * (ndim - len(shape))
            break
    bad = set(map(type, level)) - _NUMBER_TYPES
    if bad:
        names = ", ".join(sorted("null" if t is type(None) else t.__name__ for t in bad))
        raise ValueError(f"expected JSON numbers, got {names}")
    try:
        flat = np.fromiter(level, float, len(level))
    except OverflowError:
        raise ValueError("integer too large for a float") from None
    return flat.reshape(shape)


def decode_floats(raw, ndim: int) -> np.ndarray:
    """Float array of ``ndim`` nested lists of JSON numbers (``ndim = 0``: one number)."""
    return _decode(raw, ndim, pairs=False)


def decode_pairs(raw, ndim: int) -> np.ndarray:
    """Complex array of ``ndim`` nested lists of ``[re, im]`` pairs."""
    floats = _decode(raw, ndim + 1, pairs=True)
    return floats.view(complex).reshape(floats.shape[:-1])


def encode_pairs(values: np.ndarray) -> list:
    """``[re, im]`` pair lists of a complex array, as plain Python floats."""
    values = np.asarray(values, dtype=complex)
    return np.stack([values.real, values.imag], axis=-1).tolist()


def _float_tensor(obj: list) -> str | None:
    """``obj`` rendered by one template if it is a rectangular nest of finite floats."""
    level, shape = [obj], []
    while True:
        kinds = set(map(type, level))
        if kinds == {float}:
            break
        if kinds != {list}:
            return None
        widths = set(map(len, level))
        if len(widths) != 1 or 0 in widths:
            return None
        shape.append(widths.pop())
        level = list(chain.from_iterable(level))
    template = "%.17g"
    for width in reversed(shape):
        template = "[" + ", ".join([template] * width) + "]"
    text = template % tuple(level)
    # "%.17g" writes only digits, signs, "." and "e", except "inf" and "nan"
    if "n" in text:
        return None
    # it writes a negative zero as "-0" (then "," or "]"); scan only if f has a zero
    return text.replace("-0,", "-0.0,").replace("-0]", "-0.0]") if 0.0 in level else text


def _render(obj, parts: list) -> None:
    if isinstance(obj, dict):
        parts.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                parts.append(", ")
            parts.append(json.dumps(str(key)))
            parts.append(": ")
            try:
                _render(val, parts)
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        text = _float_tensor(obj) if type(obj) is list else None
        if text is not None:
            parts.append(text)
            return
        parts.append("[")
        for i, val in enumerate(obj):
            if i:
                parts.append(", ")
            _render(val, parts)
        parts.append("]")
    elif isinstance(obj, (bool, np.bool_)):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError(f"cannot serialize non-finite number {x!r}")
        text = format(x, ".17g")
        parts.append("-0.0" if text == "-0" else text)  # "-0" would read back as the integer 0
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif obj is None:
        parts.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Render a document with 17-significant-digit numbers and a trailing newline."""
    parts: list = []
    _render(obj, parts)
    return "".join(parts) + "\n"


def dumps_csv(doc: dict) -> str:
    """A header line and one row over the scalar fields of ``doc``, numbers as in :func:`dumps`."""
    row = {k: v for k, v in doc.items() if isinstance(v, (int, float, str)) or v is None}
    cells: list = []
    for key, val in row.items():
        if isinstance(val, str) or val is None:
            cells.append(val or "")
            continue
        try:
            _render(val, cells)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    return ",".join(row) + "\n" + ",".join(cells) + "\n"
