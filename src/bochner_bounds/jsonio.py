"""The package's wire codec: number arrays in, deterministic JSON text out.

Decoding.  Documents carry numbers as JSON numbers and complex numbers as
``[re, im]`` pairs.  :func:`decode_floats` and :func:`decode_pairs` turn a
rectangular nested list of them into one numpy array, checking each nesting
level at once (``set(map(len, ...))`` for the widths, ``set(map(type, ...))``
for the leaves) and converting all leaves in a single ``np.fromiter``.  The
rule: leaves are ``int`` or ``float`` (not strings, booleans or ``null``),
every row of a level shares one width of at least 1, pairs have exactly two
numbers, and an integer too large for a float is an error, not a crash.
They also take an ndarray: a C-contiguous float64 one of the right rank
(and pair width), with no zero-length axis, is used as it is, and any other
is read as its ``.tolist()``, so both decode as the same lists would.

Bulk reading.  ``json.load(fh, cls=ArrayDecoder)`` reads a document as
``json.load`` does, except that the arrays under ``function.nodes`` and
``function.values`` come back as one float64 ndarray each, in the nest's
shape, instead of nested lists.  json never builds the row and pair lists:
the brackets inside each such array are deleted, and json reads what is
left as one flat list of numbers.  Before it uses that list the reader
proves that the array text is a JSON array that json would read as the
same numbers:

* the text holds only brackets, commas, JSON whitespace and the characters
  of numbers;
* its skeleton, the text with whitespace dropped and each run of number
  characters cut to one mark, equals the skeleton of a rectangular nest in
  which every list is non-empty and every number sits inside its innermost
  brackets (``[1, 2]``, never ``1 [, 2]`` or ``[1] 2``), so deleting the
  brackets joins no two numbers, and the nest has at most numpy's 64 axes;
* json reads the flat text (so each mark was one JSON number), and every
  integer among them fits a float (the same ``np.fromiter`` converts
  them).

The rest of the document is read by json with a placeholder string in
place of each such array, and each placeholder must turn up at
``function.nodes`` or ``function.values``, so an array anywhere else (a
``generator.nodes``, say) stays a list.  If any step fails, as for a
document with a backslash, a second ``nodes`` or ``values`` array,
``NaN``, ``[]`` or a string in such an array, or invalid JSON, the
reader parses the whole text again as plain ``json.load`` would, and
returns that or raises its error.  So an accepted document decodes to the
same bits as before, and a refused one fails with json's own message.

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
import re
from itertools import chain

import numpy as np

__all__ = ["dumps", "dumps_csv", "decode_floats", "decode_pairs", "encode_pairs", "ArrayDecoder",
           "SchemaError"]

_NUMBER_TYPES = frozenset((int, float))
_PAIR_RULE = "expected [re, im] pairs of two numbers"


class SchemaError(ValueError):
    """Malformed input document; the message names the offending field."""


def _decode(raw, ndim: int, pairs: bool) -> np.ndarray:
    if isinstance(raw, np.ndarray):
        if (type(raw) is np.ndarray and raw.dtype == float and raw.ndim == ndim and raw.size
                and raw.flags.c_contiguous and (not pairs or raw.shape[-1] == 2)):
            return raw
        raw = raw.tolist()
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


# ------------------------------------------------------------- bulk reading

_BULK_KEYS = frozenset(("nodes", "values"))
_KEY_TO_ARRAY = re.compile(r"[ \t\n\r]*:[ \t\n\r]*\[")
_PLACEHOLDER = '"\\u0000"'  # reads as "\0", which no backslash-free document holds
_MAX_RANK = 64  # numpy's limit on an array's axes
_NUMBER_CHARS = b"0123456789+-.eE"
# an array text's codes: "[" 1, "]" 2, "," 3, number characters 0, bytes 0-3 4,
# every other byte itself
_CODES = bytes.maketrans(b"[],\0\1\2\3" + _NUMBER_CHARS,
                         b"\1\2\3\4\4\4\4" + bytes(len(_NUMBER_CHARS)))
_JSON_SPACE = b" \t\n\r"
_CHUNK = 1 << 20  # bytes per numpy pass in _skeleton, so its temporaries stay small


def _array_spans(s: str):
    """``(key, start, end)`` of each array that follows a bulk key in ``s``, which has no backslash.

    ``end`` is past the last ``]`` before the next string; the nest check
    proves later that the span is the whole array.
    """
    close = -1
    while True:
        start = s.find('"', close + 1)
        close = s.find('"', start + 1) if start >= 0 else -1
        if close < 0:
            return
        key = s[start + 1:close]
        match = _KEY_TO_ARRAY.match(s, close + 1) if key in _BULK_KEYS else None
        if match:
            begin = match.end() - 1
            after = s.find('"', begin)
            yield key, begin, s.rfind("]", begin, len(s) if after < 0 else after) + 1


def _skeleton(codes: bytes) -> bytes:
    """``codes`` with each run of number codes cut to one."""
    c = np.frombuffer(codes, np.uint8)
    parts = [codes[:1]]
    for lo in range(1, c.size, _CHUNK):
        window = c[lo - 1:lo + _CHUNK]
        part = window[1:]
        parts.append(part[(part | window[:-1]) != 0].tobytes())  # drop a 0 after a 0
    return b"".join(parts)


def _nest_shape(skeleton: bytes):
    """The shape of the rectangular nest of numbers whose skeleton is ``skeleton``, or None.

    In a skeleton, ``[``, ``]`` and ``,`` are 1, 2 and 3 and each number is
    one 0, so a nest has one only if every list holds one number per slot
    and every number sits inside its innermost brackets.
    """
    rank = len(skeleton) - len(skeleton.lstrip(b"\1"))
    if rank > _MAX_RANK:  # also keeps the level loop below linear in the text
        return None
    shape, inner = [], 1  # inner: the skeleton length of one element of the level below
    for level in range(rank - 1, -1, -1):
        # the first list of a level opens at index `level` and ends with the
        # first run of `rank - level` closers; at level 0 that is the whole text
        length = (skeleton.find(b"\2" * (rank - level)) + rank - 2 * level if level
                  else len(skeleton))
        width, rest = divmod(length - 1, inner + 1)
        if rest or width < 1:
            return None
        shape.append(width)
        inner = length
    template = b"\0"
    for width in shape:
        template = b"\1" + b"\3".join([template] * width) + b"\2"
    return tuple(reversed(shape)) if template == skeleton else None


class ArrayDecoder(json.JSONDecoder):
    """``json.JSONDecoder`` that reads ``function.nodes`` and ``function.values`` as float arrays.

    See the module docstring for what it proves before it returns, and for
    its fallback to a plain parse.
    """

    def decode(self, s, *args):
        if "\\" not in s:
            try:
                doc = self._bulk(s)
            except (ValueError, OverflowError, RecursionError):
                doc = None
            if doc is not None:
                return doc
        return super().decode(s, *args)

    def _bulk(self, s: str):
        arrays, pieces, pos = {}, [], 0
        for key, start, end in _array_spans(s):
            if key in arrays:
                return None
            array = self._array(s, start, end)
            if array is None:
                return None
            arrays[key] = array
            pieces += (s[pos:start], _PLACEHOLDER)
            pos = end
        if not arrays:
            return None
        pieces.append(s[pos:])
        doc = super().decode("".join(pieces))
        function = doc.get("function") if isinstance(doc, dict) else None
        if not (isinstance(function, dict) and all(function.get(key) == "\0" for key in arrays)):
            return None
        function.update(arrays)
        return doc

    def _array(self, s: str, start: int, end: int):
        """The float array of the text ``s[start:end]``, or None if the checks fail."""
        text = s[start:end].encode("ascii")
        shape = _nest_shape(_skeleton(text.translate(_CODES, _JSON_SPACE)))
        if shape is None:
            return None
        # one copy of the text at a time: brackets out, to str, outer pair back
        text = text.translate(None, b"[]")
        text = text.decode("ascii")
        flat = super().decode(f"[{text}]")
        return np.fromiter(flat, float, len(flat)).reshape(shape)


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
