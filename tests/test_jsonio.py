import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bochner_bounds.gridfn import GridFunction, Interval, gridfunction_from_dict, gridfunction_to_dict
from bochner_bounds.jsonio import ArrayDecoder, decode_floats, decode_pairs, dumps, encode_pairs

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1e16, 123456789.123456789]


def per_item_render(obj, parts: list) -> None:
    """The renderer before the array-at-a-time branch: one call per item, an ndarray as its .tolist()."""
    if isinstance(obj, np.ndarray):
        per_item_render(obj.tolist(), parts)
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                parts.append(", ")
            parts.append(json.dumps(str(key)))
            parts.append(": ")
            try:
                per_item_render(val, parts)
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, val in enumerate(obj):
            if i:
                parts.append(", ")
            per_item_render(val, parts)
        parts.append("]")
    elif isinstance(obj, (bool, np.bool_)):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            raise ValueError(f"cannot serialize non-finite number {x!r}")
        parts.append("-0.0" if x == 0.0 and math.copysign(1.0, x) < 0 else format(x, ".17g"))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif obj is None:
        parts.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def per_item_dumps(obj) -> str:
    parts: list = []
    per_item_render(obj, parts)
    return "".join(parts) + "\n"


def outcome(render, obj):
    try:
        return render(obj)
    except ValueError as exc:
        return ("ValueError", str(exc))


floats = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS + [math.inf, -math.inf, math.nan]))
finite_floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from(EDGE_FLOATS))


@st.composite
def float_tensors(draw, leaves=finite_floats):
    """Rectangular nested lists of floats, 1 to 3 levels deep.

    About half repeat one row 2 to 4 times, each copy with the signs of its
    zeros flipped or not, so that rows equal under ``==`` can differ in bits.
    """
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    if draw(st.booleans()):
        shape[0] = draw(st.integers(2, 4))
        size = math.prod(shape[1:])
        row = draw(st.lists(leaves, min_size=size, max_size=size))
        flips = draw(st.lists(st.booleans(), min_size=shape[0], max_size=shape[0]))
        flat = [-x if flip and x == 0 else x for flip in flips for x in row]
    else:
        flat = draw(st.lists(leaves, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(flat, dtype=object).reshape(shape).tolist()


@st.composite
def float_arrays(draw, leaves=finite_floats):
    """float64 arrays of every kind that :func:`dumps` tells apart.

    :func:`float_tensors` as arrays, as they are or as the strided views
    ``a[::2]`` and ``a.T``; arrays with a zero-length axis; 0-d arrays.
    """
    kind = draw(st.sampled_from(["as is", "a[::2]", "a.T", "zero-length axis", "0-d"]))
    if kind == "0-d":
        return np.array(draw(leaves))
    if kind == "zero-length axis":
        return np.zeros(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3).filter(
            lambda shape: 0 in shape)))
    a = np.array(draw(float_tensors(leaves)), dtype=float)
    return {"as is": a, "a[::2]": a[::2], "a.T": a.T}[kind]


scalars = st.one_of(
    floats,
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    floats.map(np.float64),
)
trees = st.recursive(
    st.one_of(scalars, float_tensors(), float_tensors(floats), float_arrays(), float_arrays(floats)),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), kids, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=500, deadline=None)
@given(trees)
@example([[0.0, 1.0], [-0.0, 1.0]])
@example([[-0.0, 1.0], [0.0, 1.0]])
@example([-0.0, 0.0, -0.0])
@example([[], np.float64(0.0)])
@example(np.array([[0.0, 1.0], [-0.0, 1.0]]))
@example(np.array([[-0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]]))
@example(np.array([[0.0, -0.0], [0.0, -0.0]]).T)
@example([np.array(-0.0), np.zeros((2, 0)), np.zeros((0, 3))])
@example({"values": np.array([[1.0, 0.5], [math.inf, 0.5]])})
@example({"values": np.array([[math.nan, 0.5]] * 3)})
def test_dumps_matches_the_per_item_renderer(tree):
    assert outcome(dumps, tree) == outcome(per_item_dumps, tree)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_leaf_in_a_float_tensor_names_its_key(bad):
    tensor = [[[1.0, 0.5], [0.25, -0.0]], [[2.0, 3.0], [bad, 4.0]]]
    with pytest.raises(ValueError, match=rf"^values: cannot serialize non-finite number {bad!r}$"):
        dumps({"kind": "x", "values": tensor})


def bits(z: np.ndarray) -> np.ndarray:
    """The bit patterns of the real and imaginary parts of a complex array."""
    return np.stack([z.real, z.imag], axis=-1).view(np.uint64)


def per_element_pairs(raw) -> np.ndarray:
    """The decoder before the codec: one complex() call per pair."""
    return np.asarray([[complex(p[0], p[1]) for p in row] for row in raw])


numbers = st.one_of(finite_floats, st.integers(-(2**53), 2**53))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.data())
def test_decode_pairs_is_bit_identical_to_the_per_element_decoder(n, d, data):
    pair = st.lists(numbers, min_size=2, max_size=2)
    raw = data.draw(st.lists(st.lists(pair, min_size=d, max_size=d), min_size=n, max_size=n))
    got = decode_pairs(raw, 2)
    want = per_element_pairs(raw)
    assert got.shape == want.shape == (n, d)
    assert np.array_equal(bits(got), bits(want))
    flat = data.draw(st.lists(numbers, max_size=8))
    assert np.array_equal(decode_floats(flat, 1).view(np.uint64),
                          np.asarray([float(x) for x in flat], dtype=float).view(np.uint64))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 3), st.data())
def test_encode_pairs_inverts_decode_pairs(ndim, data):
    shape = data.draw(st.lists(st.integers(1, 3), min_size=ndim, max_size=ndim))
    parts = data.draw(st.lists(finite_floats, min_size=2 * math.prod(shape),
                               max_size=2 * math.prod(shape)))
    values = np.array(parts).view(complex).reshape(shape)
    encoded = encode_pairs(values)
    assert json.loads(json.dumps(encoded)) == encoded  # plain lists of Python floats
    back = decode_pairs(encoded, ndim)
    assert back.shape == values.shape
    assert np.array_equal(bits(back), bits(values))


@pytest.mark.parametrize(
    "raw, ndim, message",
    [
        ([0, "0.5", 1], 1, "got str"),
        ([0, True, 1], 1, "got bool"),
        ([0, None, 1], 1, "got null"),
        ("0", 0, "got str"),
        ([2], 0, "got list"),
        (0.5, 1, "expected a list"),
        ([10**400], 1, "integer too large"),
        ([[1, 2], [3]], 2, "dimension"),
        ([[], []], 2, "dimension"),
        ([[1], 2], 2, "lists of rows"),
    ],
)
def test_decode_floats_rejects_what_is_not_the_number_rule(raw, ndim, message):
    with pytest.raises(ValueError, match=message):
        decode_floats(raw, ndim)


@pytest.mark.parametrize(
    "raw, message",
    [
        ([[[0.6, 0.8, 99]]], r"\[re, im\] pairs of two"),
        ([[[0.6]]], r"\[re, im\] pairs of two"),
        ([[0.6, 0.8]], r"\[re, im\] pairs of two"),
        ([[], [], []], "dimension of at least 1"),
        ([[[1, 0]], [[1, 0], [0, 1]]], "dimension"),
        ([[[1, True]]], "got bool"),
        ([[[10**400, 0]]], "integer too large"),
    ],
)
def test_decode_pairs_rejects_what_is_not_the_number_rule(raw, message):
    with pytest.raises(ValueError, match=message):
        decode_pairs(raw, 2)


@st.composite
def function_texts(draw):
    n = draw(st.integers(2, 6))
    d = draw(st.integers(1, 3))
    drawn = draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
    nodes = sorted(set(drawn))
    if len(nodes) < 2:
        nodes = [0.0, 1.0]
    pair = st.lists(finite_floats, min_size=2, max_size=2)
    values = draw(st.lists(st.lists(pair, min_size=d, max_size=d),
                           min_size=len(nodes), max_size=len(nodes)))
    interp = draw(st.sampled_from(["linear", "constleft"]))
    doc = {"a": nodes[0], "b": nodes[-1], "nodes": nodes, "values": values, "interp": interp}
    return per_item_dumps(doc)


@settings(max_examples=100, deadline=None)
@given(function_texts())
def test_function_document_round_trip_is_byte_exact(text):
    assert dumps(gridfunction_to_dict(gridfunction_from_dict(json.loads(text)))) == text


@st.composite
def grid_functions(draw):
    """Functions on 2 to 6 nodes with d = 1 to 4.

    Half of them repeat one row, each copy with the signs of its zeros
    flipped or not.  ``finite_floats`` draws -0.0 and subnormals.
    """
    span_floats = finite_floats.filter(lambda x: abs(x) < 1e300)  # no overflow in np.diff(nodes)
    nodes = sorted(set(draw(st.lists(span_floats, min_size=2, max_size=6))))
    if len(nodes) < 2:
        nodes = [-0.0, 5e-324]
    n, d = len(nodes), draw(st.integers(1, 4))
    if draw(st.booleans()):
        row = draw(st.lists(finite_floats, min_size=2 * d, max_size=2 * d))
        flips = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        flat = [-x if flip and x == 0 else x for flip in flips for x in row]
    else:
        flat = draw(st.lists(finite_floats, min_size=2 * n * d, max_size=2 * n * d))
    values = np.array(flat).view(complex).reshape(n, d)
    return GridFunction(Interval(nodes[0], nodes[-1]), nodes, values)


@settings(max_examples=200, deadline=None)
@given(grid_functions())
def test_function_arrays_read_back_with_their_bits(f):
    wire = gridfunction_to_dict(f)
    back = json.loads(dumps({"function": wire}), cls=ArrayDecoder)["function"]
    for key in ("nodes", "values"):
        assert type(back[key]) is np.ndarray and back[key].shape == wire[key].shape
        assert np.array_equal(back[key].view(np.uint64), wire[key].view(np.uint64))
