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
shape, instead of nested lists.  json never builds the row and pair lists.
Before it uses such an array the reader proves that the array text is a
JSON array that json would read as the same numbers:

* the text holds only brackets, commas, JSON whitespace and the characters
  of numbers;
* its skeleton, the text with whitespace dropped and each run of number
  characters cut to one mark, equals the skeleton of a rectangular nest in
  which every list is non-empty and every number sits inside its innermost
  brackets (``[1, 2]``, never ``1 [, 2]`` or ``[1] 2``), so deleting the
  brackets joins no two numbers, and the nest has at most numpy's 64 axes;
* each number, with the brackets deleted, reads as json reads it, by one
  of two paths.

The array text is never copied whole.  It is cut into pieces of about
``_PIECE`` characters (64 Ki), each but the last ending just after a comma,
and read in two passes over the same pieces.  The first encodes each piece,
maps it to codes and cuts its number runs; since the piece before ended in
a comma, a piece's first code is always kept, so the parts join into the
skeleton, about a sixth of the text.  Its shape is read off the first
element of each level.  The nest is compared with the skeleton without
being built: one top-level element is built by repetition and the rows are
compared a block at a time.  Only then does the second pass read each
piece's numbers, with its brackets and closing comma deleted, into an
array allocated once at the proven size, so no number is read from text
that is not proven a nest.

The strtold path runs where long double is a binary format of at least 64
significant bits (x87 extended precision on x86-64 Linux, IEEE quad on
aarch64 Linux) and numpy raises on a read that stops early; both are
decided once, at import.  ``np.fromstring(..., np.longdouble, sep=",")``
reads a piece in one C call to the C library's ``strtold``, which rounds
correctly to 64 bits, and the results are rounded to float64.  Two checks
make that json's result:

* Grammar.  Over the characters of numbers, strtold reads whole three
  things that JSON refuses, and only these are checked, from the bytes: a
  ``+`` that does not follow an exponent's ``e`` or ``E``, a leading 0
  followed by a digit (``01``, ``-01``), and a ``.`` without a digit on
  each side (``1.``, ``.5``, ``-.5``, ``1.e5``).  Whatever else JSON
  refuses (a second ``.`` or exponent, a stray sign, ``1e``, two numbers
  in one place) stops strtold before the next comma, and ``,0`` appended to
  each piece makes sure that such a read is not the last, so it raises.
  The read is sized to the piece's commas, the appended one included, plus
  one: numpy fills a larger count with uninitialized values.
* Rounding.  Rounding the 64-bit result x to 53 bits gives the correctly
  rounded double, json's float, unless x lies exactly halfway between two
  adjacent doubles, on the normal or the subnormal grid (the
  double-rounding argument of Clinger, "How to Read Floating Point Numbers
  Accurately", PLDI 1990): then ``2 x - near`` is the other neighbour,
  exactly, and is otherwise no double.  That exact test runs only where
  ``x - near``, as a double, is a nonzero power of two (as it is at every
  midpoint once ``|near| > 2**-960``, where half a spacing is a normal
  double), and where ``|near| <= 2**-960`` or near is infinite: for 1.6
  to 2.0 % of the numbers in the benchmark's documents.  The midpoints,
  and the numbers that round to an infinity (where json refuses an
  integer), are read again by json from their text.  Zeros are settled in
  numpy: ``-0`` is json's integer 0, so it reads +0.0, while ``-0.0`` and
  ``-0e5`` read -0.0.

An array of two pieces or more, in a process that may run on two CPUs or
more, overlaps the strtold calls with the checks: numpy releases the
interpreter lock inside ``fromstring``, so one daemon thread, started on
first use and kept for the process, reads piece i while the reading
thread checks piece i + 1 and rounds piece i - 1.  Each piece is checked
and queued before the result of the one before it is awaited, so the
worker always has a piece at hand, and the checks run in the serial
order, each before its own piece's strtold call.  One read at a time uses
the worker, with a result queue of its own, and waits for every job it
queued before it returns, refuses or raises; a concurrent read reads
serially, and so do single-piece arrays.  A forked child forgets the
worker and starts its own.

Elsewhere json reads each piece's bracket-free text as one flat list of
numbers, and every integer among them must fit a float (``np.fromiter``
converts them).  Either way an array holds json's bits, on every platform.

The rest of the document is read by json with a placeholder string in
place of each such array, and each placeholder must turn up at
``function.nodes`` or ``function.values``, so an array anywhere else (a
``generator.nodes``, say) stays a list.  If any step fails, as for a
document with a backslash, a second ``nodes`` or ``values`` array,
``NaN``, ``[]`` or a string in such an array, an integer too large for a
float, or invalid JSON, the reader parses the whole text again as plain
``json.load`` would, and returns that or raises its error.  So an accepted
document decodes to the same bits as before, and a refused one fails with
json's own message.

Encoding.  :func:`encode_pairs` is the inverse of :func:`decode_pairs` and
returns plain lists.  :func:`dumps` fixes every float at 17 significant
digits (``json.dumps`` would leave it to ``repr``), so that identical inputs
produce byte-identical output files.  A float64 ndarray (the function
arrays of :func:`~.gridfn.gridfunction_to_dict`) is rendered as its
``.tolist()`` would be, with one ``%`` on a template built from its shape;
lists, tuples and other arrays are rendered item by item, with the same
bytes.  If the array's top-level rows all have the first row's bits (a
witness's ``values`` do), only the first row is formatted and its text is
used for every row, again with the same bytes: the rows are compared as
``uint64``, so ``0.0`` and ``-0.0`` differ, as their texts do.  The pieces
are joined once, into the one copy of the text.  A non-finite entry is
refused with the message a non-finite float gets.  Dict keys keep
insertion order (the schemas fix it).  Negative zero is written ``-0.0``,
which ``json.load`` reads back as a signed float (``-0`` would be the
integer 0).  :func:`dumps_csv` writes the scalar fields of a report as a
CSV header and row, with the same numbers.
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
import warnings
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
_PIECE = 1 << 16  # characters per piece of an array text: every stage's temporaries stay in cache
# below this a midpoint's distance to its double, half a subnormal spacing
# or little more, is no normal double, so it has no power-of-two bit pattern
_NEAR_SUBNORMAL = 2.0 ** -960
_SIGN_EXPONENT_BITS = np.uint64(12)  # shifted out of a double's bits, they leave its mantissa


def _strtold_reads_exactly() -> bool:
    """Whether long double is a binary format of 64 or more bits and a partial read raises.

    Then ``_long_read`` gives json's bits: x87 extended precision and IEEE
    quad qualify, double-double (whose exponent is a double's) does not.
    """
    info = np.finfo(np.longdouble)
    if info.nmant < 63 or info.nexp != 15:
        return False
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # older numpy only warns
        try:
            np.fromstring("1 2", np.longdouble, sep=",")
        except ValueError:
            return True
    return False


_STRTOLD_READ = _strtold_reads_exactly()


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


def _pieces(s: str, start: int, end: int):
    """``(lo, hi)`` of the pieces of ``s[start:end]``: about ``_PIECE`` characters each.

    Every piece but the last ends just after a comma.
    """
    lo = start
    while lo < end:
        hi = s.find(",", lo + _PIECE, end) + 1 or end  # find gives -1 past the last comma
        yield lo, hi
        lo = hi


def _skeleton(s: str, start: int, end: int) -> bytearray:
    """The codes of the array text ``s[start:end]``, each run of number codes cut to one."""
    skeleton = bytearray()
    for lo, hi in _pieces(s, start, end):
        codes = s[lo:hi].encode("ascii").translate(_CODES, _JSON_SPACE)
        c = np.frombuffer(codes, np.uint8)
        # the first code stays: the piece before ended in a comma
        skeleton += codes[:1]
        skeleton += c[1:][(c[1:] | c[:-1]) != 0].tobytes()  # drop a 0 after a 0
    return skeleton


def _nest_shape(skeleton: bytearray):
    """The shape of the rectangular nest of numbers whose skeleton is ``skeleton``, or None.

    In a skeleton, ``[``, ``]`` and ``,`` are 1, 2 and 3 and each number is
    one 0, so a nest has one only if every list holds one number per slot
    and every number sits inside its innermost brackets.
    """
    head = skeleton[:_MAX_RANK + 1]
    rank = len(head) - len(head.lstrip(b"\1"))
    if not 1 <= rank <= _MAX_RANK:  # the bound also keeps the level loop linear in the text
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
    element = b"\0"  # the skeleton of one top-level element
    for width in shape[:-1]:
        element = b"\1" + (element + b"\3") * (width - 1) + element + b"\2"
    # the top level: the skeleton's length is already that of the nest, so
    # it remains to compare its rows, a block at a time, and its last element
    row = element + b"\3"
    per_block = max(1, _PIECE // len(row))
    blocks, rest = divmod(shape[-1] - 1, per_block)
    block = row * per_block
    tail = 1 + blocks * len(block)
    if not (all(skeleton.startswith(block, at) for at in range(1, tail, len(block)))
            and skeleton.startswith(row * rest, tail) and skeleton.endswith(element + b"\2")):
        return None
    return tuple(reversed(shape))


def _json_numbers(c: np.ndarray) -> bool:
    """Whether every number in the piece ``c`` that strtold reads whole is a JSON number.

    ``c`` holds numbers, commas and JSON whitespace and ends in ``",0"``.
    strtold reads three things that JSON refuses: a ``+`` not after an
    exponent's ``e``, a leading 0 followed by a digit, and a ``.`` without a
    digit on each side.  ``c[-1]`` is that 0, so ``c[i - 1]`` at ``i = 0``
    reads as no ``e``.
    """
    plus = np.flatnonzero(c == 43)
    if ((c[plus - 1] | 32) != 101).any():  # "e" or "E"
        return False
    nibble = c | 15  # 63 exactly for the digits among the bytes that c can hold
    other, digit = nibble != 63, nibble == 63
    if c[0] == 46 or ((c[1:-1] == 46) & (other[:-2] | other[2:])).any():
        return False
    if c[0] == 48 and digit[1]:
        return False
    # a 0 followed by a digit after whitespace, a comma or a sign starts the
    # integer part, unless the sign is an exponent's
    suspects = np.flatnonzero((c[1:-1] == 48) & digit[2:] & (c[:-2] <= 45)) + 1
    if suspects.size:
        before = c[suspects - 1]
        exponent = ((before == 43) | (before == 45)) & ((c[suspects - 2] | 32) == 101)
        if not exponent.all():
            return False
    return True


def _round_to_doubles(wide: np.ndarray, near: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Round the strtold results ``wide`` into ``near``; the indices json must read again.

    Rounding to 64 bits and then to 53 gives the correctly rounded double
    unless the 64-bit result is a midpoint between two adjacent doubles, on
    the normal or the subnormal grid.  Those are returned, and so are the
    results that round to an infinity, where json's integers overflow.  A
    ``-0`` token is json's integer 0, so it is set to +0.0 here.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        near[...] = wide
        # x - near is exact, and at a midpoint it is half the spacing of the
        # doubles at near: a power of two, whose mantissa bits are all zero,
        # once |near| is above _NEAR_SUBNORMAL.  Only the few numbers that
        # pass this cheap test, and those near zero or an infinity, get the
        # exact one.
        step = (wide - near).astype(np.float64)
        maybe = np.flatnonzero((step.view(np.uint64) << _SIGN_EXPONENT_BITS == 0) & (step != 0)
                               | (np.abs(near) <= _NEAR_SUBNORMAL) | np.isinf(near))
        x, n = wide[maybe], near[maybe]
        # 2 x - n, exact: n if x is a double, the other neighbour of x if x
        # is a midpoint, and strictly between the two otherwise
        x -= n - x
        double = x.astype(np.float64)
        again = maybe[(x == double) & (double != n) | np.isinf(n)]
    zero = near == 0
    if zero.any() and np.signbit(near[zero]).any():
        signs = np.flatnonzero(codes[:-2] == 45)
        # "-0" then a comma or whitespace, not after an exponent's "e" (codes[-1]
        # is the appended 0, so a "-" at 0 passes)
        minus_zero = signs[(codes[signs + 1] == 48) & (codes[signs + 2] <= 44)
                           & ((codes[signs - 1] | 32) != 101)]
        near[np.searchsorted(np.flatnonzero(codes == 44), minus_zero)] = 0.0
    return again


def _strtold_job(text: bytes, room: int):
    """``(piece, codes, count)`` for strtold to read the numbers of ``text``, or None.

    ``text`` has no brackets.  None if the grammar check refuses a number
    or there are more than ``room`` numbers.
    """
    # a number that strtold reads only in part is never the last one
    piece = text + b",0"
    codes = np.frombuffer(piece, np.uint8)
    if not _json_numbers(codes):
        return None
    count = np.count_nonzero(codes == 44)  # the numbers before the 0
    return (piece, codes, count) if count <= room else None


def _strtold(piece: bytes, count: int) -> np.ndarray:
    """strtold's reads of the ``count`` numbers of ``piece`` and its appended 0.

    ValueError if strtold stops inside one.
    """
    # sized to the piece's own commas, so numpy grows no buffer and reads no
    # uninitialized values past the text
    return np.fromstring(piece, np.longdouble, count + 1, sep=",")


# One daemon thread per process runs strtold on the pieces of a long array
# while the reading thread checks the next piece and rounds the one before:
# numpy releases the interpreter lock inside fromstring.  It starts on first
# use, and one read at a time uses it; a concurrent read reads serially.
_worker_jobs = None  # its queue of (piece, count, results), once it runs
_worker_lock = threading.Lock()


def _strtold_worker(jobs) -> None:
    while True:
        piece, count, results = jobs.get()
        try:
            results.put(_strtold(piece, count))
        except Exception as exc:  # handed to the reader, which raises it
            results.put(exc)
        del piece, results  # hold no piece between jobs


def _worker_queue():
    """The worker's job queue; the caller holds ``_worker_lock``."""
    global _worker_jobs
    if _worker_jobs is None:
        from queue import SimpleQueue  # only a long array needs it
        jobs = SimpleQueue()
        threading.Thread(target=_strtold_worker, args=(jobs,), name="jsonio-strtold",
                         daemon=True).start()
        _worker_jobs = jobs
    return _worker_jobs


def _forget_worker() -> None:
    """In a forked child: the worker thread did not come along, nor did any holder of the lock."""
    global _worker_jobs, _worker_lock
    _worker_jobs, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
        """The float array of the text ``s[start:end]``, or None if the checks fail.

        Two passes over the same pieces: the first proves the nest and gives
        its shape, the second reads the numbers into an array of that size.
        """
        shape = _nest_shape(_skeleton(s, start, end))
        if shape is None:
            return None
        out = np.empty(math.prod(shape))
        pieces = list(_pieces(s, start, end))
        # each piece without brackets or the comma that ends it
        texts = (s[lo:hi - (hi < end)].encode("ascii").translate(None, b"[]") for lo, hi in pieces)
        overlap = _STRTOLD_READ and len(pieces) > 1 and _cpus() > 1
        if overlap and _worker_lock.acquire(blocking=False):
            try:
                done = self._overlapped_read(texts, out)
            finally:
                _worker_lock.release()
        else:
            read = self._long_read if _STRTOLD_READ else self._json_read
            done = 0
            for text in texts:
                count = read(text, out[done:])
                if count is None:
                    return None
                done += count
        return out.reshape(shape) if done == out.size else None

    def _long_read(self, text: bytes, out: np.ndarray):
        """Read json's floats of the numbers in ``text`` into the start of ``out``; their count.

        ``text`` has no brackets.  None if the grammar check refuses a number
        or there are more numbers than ``out`` holds; ValueError if strtold
        stops inside one.
        """
        job = _strtold_job(text, out.size)
        if job is None:
            return None
        piece, codes, count = job
        self._round(piece, codes, _strtold(piece, count), out[:count])
        return count

    def _overlapped_read(self, texts, out: np.ndarray):
        """:meth:`_long_read` of each of ``texts`` in turn, into ``out``; the count read.

        Each piece is checked and queued for the worker before the result of
        the piece before it is awaited and rounded, so the worker always has
        the next piece at hand and every check runs in the serial read's
        order.  Whether it returns, refuses or raises, it leaves no job of
        this read with the worker.
        """
        from queue import SimpleQueue
        jobs, results = _worker_queue(), SimpleQueue()
        done, flights = 0, []  # (piece, codes, its place in out) of each piece queued

        def land():
            piece, codes, near = flights.pop(0)
            wide = results.get()
            if isinstance(wide, Exception):
                raise wide
            return piece, codes, wide, near

        try:
            for text in texts:
                job = _strtold_job(text, out.size - done)
                if job is None:
                    return None
                piece, codes, count = job
                jobs.put((piece, count, results))
                flights.append((piece, codes, out[done:done + count]))
                done += count
                if len(flights) > 1:
                    self._round(*land())
            if flights:
                self._round(*land())
            return done
        finally:
            for _ in flights:
                results.get()

    def _round(self, piece: bytes, codes: np.ndarray, wide: np.ndarray, near: np.ndarray) -> None:
        """Round strtold's reads ``wide`` of ``piece`` into ``near``; json reads midpoints again."""
        again = _round_to_doubles(wide[:near.size], near, codes)
        if again.size:
            commas = np.flatnonzero(codes == 44)
            for at in again.tolist():
                start = commas[at - 1] + 1 if at else 0
                near[at] = float(super().decode(piece[start:commas[at]].decode("ascii")))

    def _json_read(self, text: bytes, out: np.ndarray):
        """As :meth:`_long_read`, with json reading ``text`` as one flat list."""
        numbers = super().decode("[%s]" % text.decode("ascii"))
        count = len(numbers)
        if count > out.size:
            return None
        out[:count] = np.fromiter(numbers, float, count)
        return count


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


def _float_array(a: np.ndarray) -> list:
    """The float64 array ``a`` of rank >= 1 rendered by one template built from its shape, as pieces.

    If every top-level row has the first row's bits, only the first row is
    formatted, and its text is one piece per row, which gives the same bytes.
    """
    rows = a.shape[0]
    bits = a.view(np.uint64)
    if rows > 1 and (bits == bits[:1]).all():
        row = _float_array(a[:1])[0][1:-1]
        return ["[", *[row, ", "] * (rows - 1), row, "]"]
    template = "%.17g"
    for width in reversed(a.shape):
        template = "[" + ", ".join([template] * width) + "]"
    text = template % tuple(a.ravel().tolist())
    # "%.17g" writes only digits, signs, "." and "e", except "inf" and "nan"
    if "n" in text:  # the first one in the order of .tolist()
        raise ValueError(f"cannot serialize non-finite number {float(a[~np.isfinite(a)][0])!r}")
    # it writes a negative zero as "-0", then "," or "]"
    return [text.replace("-0,", "-0.0,").replace("-0]", "-0.0]")]


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
        parts.append("[")
        for i, val in enumerate(obj):
            if i:
                parts.append(", ")
            _render(val, parts)
        parts.append("]")
    elif type(obj) is np.ndarray and obj.dtype == float and obj.ndim:
        parts += _float_array(obj)
    elif isinstance(obj, np.ndarray):  # 0-d or another dtype: as its .tolist()
        _render(obj.tolist(), parts)
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
    return "".join(parts + ["\n"])  # the one copy of the whole text


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
