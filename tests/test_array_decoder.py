"""``json.load(fh, cls=ArrayDecoder)`` against plain ``json.load`` and the list decoders.

Every case has one of two outcomes: the bulk read returns the plain read
with ``function.nodes``/``function.values`` as float arrays that equal
``np.array(plain, float)`` bit for bit, or it fails with the same exception
type and message.  Over the CLI, both readers give the same exit status,
output and ``error:`` line.  The number cases run on both read paths: the
strtold read, where long double has 64 bits or more, and the flat json
read that every platform has.
"""

import json
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bochner_bounds import cli, jsonio
from bochner_bounds.gridfn import gridfunction_from_dict
from bochner_bounds.jsonio import ArrayDecoder

READ_PATHS = [
    pytest.param(True, id="strtold", marks=pytest.mark.skipif(
        not jsonio._STRTOLD_READ, reason="the strtold read does not run here")),
    pytest.param(False, id="flat-json"),
]

HYPOTHESIS = '{"type": "k_cond", "e": [[1, 0]], "K": 2.0}'
NODES = "[0.0, 0.5, 1.0]"
VALUES = "[[[0.6, 0.8]], [[0.6, 0.8]], [[0.6, 0.8]]]"


def doc_text(nodes=NODES, values=VALUES, extra="", tail=""):
    return ('{"schema": "bochner-bounds/1", "function": {"a": 0.0, "b": 1.0, "nodes": %s, '
            '"values": %s, "interp": "linear"%s}, "hypothesis": %s%s}'
            % (nodes, values, extra, HYPOTHESIS, tail))


def read(text, cls):
    try:
        return json.loads(text, cls=cls)
    except (ValueError, RecursionError) as exc:
        return type(exc), str(exc)


def bulk_read(text) -> list:
    """Check the bulk read of ``text`` against the plain one; the keys it read as arrays."""
    plain, bulk = read(text, json.JSONDecoder), read(text, ArrayDecoder)
    if isinstance(plain, tuple):
        assert bulk == plain
        return []
    arrays = []
    function = bulk.get("function") if isinstance(bulk, dict) else None
    for key in ("nodes", "values"):
        got = function.get(key) if isinstance(function, dict) else None
        if isinstance(got, np.ndarray):
            want = np.array(plain["function"][key], float)
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            function[key] = plain["function"][key]
            arrays.append(key)
    assert repr(bulk) == repr(plain)  # repr tells 1 from 1.0 and True, and -0.0 from 0.0
    return arrays


def cli_outcome(tmp_path, monkeypatch, capsys, raw: bytes, command="check"):
    """(status, stdout, stderr) of ``command`` on ``raw``, with the bulk reader and without."""
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    argv = [command, "--input", str(path)] + (["--trials", "2"] if command == "bench" else [])
    outcomes = []
    for cls in (ArrayDecoder, json.JSONDecoder):
        with monkeypatch.context() as m:
            m.setattr(cli, "ArrayDecoder", cls)
            status = cli.main(argv)
        outcomes.append((status, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


def same_everywhere(text, tmp_path, monkeypatch, capsys, command="check") -> list:
    arrays = bulk_read(text)
    cli_outcome(tmp_path, monkeypatch, capsys, text.encode("utf-8"), command)
    return arrays


def test_a_plain_document_is_read_in_bulk(tmp_path, monkeypatch, capsys):
    assert same_everywhere(doc_text(), tmp_path, monkeypatch, capsys) == ["nodes", "values"]
    status, out, err = cli_outcome(tmp_path, monkeypatch, capsys, doc_text().encode())
    assert status == 0 and json.loads(out)["holds"] is True and err == ""


def test_pretty_printed_and_crlf_documents_are_read_in_bulk(tmp_path, monkeypatch, capsys):
    text = json.dumps(json.loads(doc_text()), indent=2)
    assert bulk_read(text) == ["nodes", "values"]
    for raw in (text.encode(), text.replace("\n", "\r\n").encode()):
        status, _, _ = cli_outcome(tmp_path, monkeypatch, capsys, raw)
        assert status == 0


NUMBERS = ["+1", ".5", "1.", "01", "-01", "1e05", "-0", "-0.0", "1e400", "1" + "0" * 400,
           "NaN", "Infinity", "-Infinity", "true", "null", '"0.5"', "0x1", "1_0"]


@pytest.mark.parametrize("token", NUMBERS)
def test_numbers_in_values_and_nodes(token, tmp_path, monkeypatch, capsys):
    same_everywhere(doc_text(values=VALUES.replace("0.6", token, 1)), tmp_path, monkeypatch, capsys)
    same_everywhere(doc_text(nodes=NODES.replace("0.5", token)), tmp_path, monkeypatch, capsys)


def test_negative_zero_written_as_an_integer_reads_as_plus_zero():
    values = json.loads(doc_text(values=VALUES.replace("0.8", "-0", 1)),
                        cls=ArrayDecoder)["function"]["values"]
    assert isinstance(values, np.ndarray)
    assert values[:, 0, 1].tobytes() == np.array([0.0, 0.8, 0.8]).tobytes()
    values = json.loads(doc_text(values=VALUES.replace("0.8", "-0.0", 1)),
                        cls=ArrayDecoder)["function"]["values"]
    assert values[:, 0, 1].tobytes() == np.array([-0.0, 0.8, 0.8]).tobytes()


def test_exponents_and_large_integers_read_in_bulk():
    assert bulk_read(doc_text(values=VALUES.replace("0.6", "1e05", 1))) == ["nodes", "values"]
    assert bulk_read(doc_text(values=VALUES.replace("0.6", "1e400", 1))) == ["nodes", "values"]
    assert bulk_read(doc_text(values=VALUES.replace("0.6", "9" * 300, 1))) == ["nodes", "values"]
    # past the float range the list path names the error, so the bulk reader steps aside
    assert bulk_read(doc_text(values=VALUES.replace("0.6", "1" + "0" * 400, 1))) == []


STRUCTURES = ["[1 2]", "[1,]", "[,1]", "[]", "[[]]", "[[1],[2,3]]", "[[1,2],3]", "[[1]2]",
              "[1[,2]]", "[[1,2] [3,4]]", "[[1,2],[3,4]", "[[1,2],[3,4]]]", "[[[1,2]],[3,4]]"]


@pytest.mark.parametrize("nest", STRUCTURES)
def test_bad_structures_fail_as_json_does(nest, tmp_path, monkeypatch, capsys):
    assert same_everywhere(doc_text(nodes=nest), tmp_path, monkeypatch, capsys) == []
    assert same_everywhere(doc_text(values=nest), tmp_path, monkeypatch, capsys) == []


@pytest.mark.parametrize("values", [
    "[[[0.6, 0.8]], [[0.6, 0.8]] 5, [[0.6, 0.8]]]",  # a number after a closer
    "[[[0.6, 0.8]], [0.6 [0.8]], [[0.6, 0.8]]]",  # a number before an opener
    "[[[0.6, 0.8]], [[0.6, 0.8] 0.8], [[0.6, 0.8]]]",
    "[[[0.6, 0.8]], [[0.6, 0.8]], [0.6 [, 0.8]]]",  # as many numbers as places
    "[[[0.6, 0.8]], [[0.6, 0.8]], [[0.6, ] 0.8]]",
    "[[[0.6, 0.8]], [[0.6 0.8]], [[0.6, 0.8]]]",  # two numbers in one slot
    "[[[0.6, 0.8]], [[0.6, 0-8]], [[0.6, 0.8]]]",
    "[[[0.6, true]], [[0.6, 0.8]], [[0.6, 0.8]]]",
    '[[[0.6, "0.5"]], [[0.6, 0.8]], [[0.6, 0.8]]]',
    "[[[0.6, 0.8]], [[0.6,\f0.8]], [[0.6, 0.8]]]",  # \f is not JSON whitespace
    "[[[0.6, 0.8]], [[0.6,\x010.8]], [[0.6, 0.8]]]",
    "[[[0.6, 0.8]], [[0.6, ０.8]], [[0.6, 0.8]]]",  # a fullwidth digit
])
def test_misplaced_numbers_and_foreign_characters(values, tmp_path, monkeypatch, capsys):
    assert same_everywhere(doc_text(values=values), tmp_path, monkeypatch, capsys) == []


NUMBER_TEXTS = st.sampled_from(["0", "-0", "1", "-12", "0.5", "-0.0", "1e05", "2.5E-3", "1e400",
                                "123456789012345678901234567890"])
SPACE = st.sampled_from(["", "", "", " ", "\n  ", "\t", "\r\n"])


@st.composite
def nest_texts(draw):
    """A rectangular nest of JSON numbers with random whitespace, then a few random edits."""
    def render(depth):
        if depth == 0:
            return draw(SPACE) + draw(NUMBER_TEXTS) + draw(SPACE)
        width = draw(st.integers(1, 3))
        items = ",".join(render(depth - 1) for _ in range(width))
        return draw(SPACE) + "[" + items + "]" + draw(SPACE)
    text = render(draw(st.integers(1, 3)))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text) - 2))
        edit = draw(st.sampled_from(["swap", "swap", "[", "]", ",", " ", "1", ".", "-", "e", ""]))
        if edit == "swap":  # moves a number across a bracket, say
            text = text[:at] + text[at + 1] + text[at] + text[at + 2:]
        else:
            text = text[:at] + edit + text[at + draw(st.integers(0, 1)):]
    return text


@settings(max_examples=400, deadline=None)
@given(nest_texts(), st.booleans())
def test_random_nests_read_as_json_reads_them(nest, as_values):
    bulk_read(doc_text(values=nest) if as_values else doc_text(nodes=nest))


@pytest.mark.parametrize("values, arrays", [
    ("[[0.6, 0.8], [0.6, 0.8], [0.6, 0.8]]", ["nodes", "values"]),  # no pair level
    ("[[[0.6, 0.8, 0.1]], [[0.6, 0.8, 0.1]], [[0.6, 0.8, 0.1]]]", ["nodes", "values"]),
    ("[[[[0.6, 0.8]]], [[[0.6, 0.8]]], [[[0.6, 0.8]]]]", ["nodes", "values"]),
    ("[[[0.6, 0.8]], [[0.6, 0.8]]]", ["nodes", "values"]),  # one row short
    pytest.param("[" * 40 + "0.6" + "]" * 40, ["nodes", "values"], id="depth-40"),
    pytest.param("[" * 70 + "0.6" + "]" * 70, [], id="depth-70"),  # deeper than numpy goes
    pytest.param("[" * 3000 + "0.6" + "]" * 3000, [], id="depth-3000"),  # deeper than json goes
    # refused before any work per level, which would grow with the square of the depth
    pytest.param("[" * 200_000 + "0.6" + "]" * 200_000, [], id="depth-200000"),
])
def test_arrays_of_the_wrong_shape_are_refused_as_lists_are(values, arrays, tmp_path,
                                                            monkeypatch, capsys):
    assert same_everywhere(doc_text(values=values), tmp_path, monkeypatch, capsys) == arrays


@pytest.mark.parametrize("extra, arrays", [
    (', "note": "\\"values\\": [[[1, 0]]]"', []),  # a backslash: plain parse
    (', "note": "values: [[[1, 0]]]"', ["nodes", "values"]),
    (', "note": "values"', ["nodes", "values"]),
    (', "note": "café — π"', ["nodes", "values"]),  # non-ASCII elsewhere
    (', "values": [[[1, 0]], [[1, 0]], [[1, 0]]]', []),  # a duplicate key: the last wins
    (', "note": {"values": [[1]]}', []),  # an array under another object
])
def test_keys_and_strings(extra, arrays, tmp_path, monkeypatch, capsys):
    assert same_everywhere(doc_text(extra=extra), tmp_path, monkeypatch, capsys) == arrays


def test_arrays_outside_the_function_stay_lists(tmp_path, monkeypatch, capsys):
    hypothesis = '{"type": "k_cond", "e": [[1, 0]], "K": 2.0, "values": [[1, 2]]}'
    text = doc_text().replace(HYPOTHESIS, hypothesis)
    assert same_everywhere(text, tmp_path, monkeypatch, capsys) == []
    bench = '{"schema": "bochner-bounds/1", "hypothesis": %s, "generator": {"nodes": %s}}'
    for nodes in ("[17]", "[[17]]", "[1.5, 2]", "17"):
        assert same_everywhere(bench % (HYPOTHESIS, nodes), tmp_path, monkeypatch, capsys,
                               "bench") == []
    no_nodes = doc_text().replace('"nodes": %s, ' % NODES, "")
    nodes_in_hypothesis = hypothesis.replace('"values": [[1, 2]]', '"nodes": %s' % NODES)
    for moved in (no_nodes.replace(HYPOTHESIS, nodes_in_hypothesis),
                  no_nodes[:-1] + ', "generator": {"nodes": [17]}}'):
        for command in ("check", "bench"):
            assert same_everywhere(moved, tmp_path, monkeypatch, capsys, command) == []
    status, _, err = cli_outcome(tmp_path, monkeypatch, capsys,
                                 (bench % (HYPOTHESIS, "[1.5, 2]")).encode(), "bench")
    assert status == 1 and err.startswith("error: generator.nodes: ") and "[1.5, 2]" in err


@pytest.mark.parametrize("raw", [
    b"\xef\xbb\xbf" + doc_text().encode(),  # a UTF-8 byte order mark
    doc_text().encode() + b"\n\n",
    b"[" + doc_text().encode() + b"]",
    doc_text().encode()[:-1],
    doc_text(values=VALUES.replace("0.6", "\xe9", 1)).encode("latin-1"),
])
def test_encodings_and_top_level_errors(raw, tmp_path, monkeypatch, capsys):
    status, _, err = cli_outcome(tmp_path, monkeypatch, capsys, raw)
    assert status in (0, 1)
    if status:
        assert err.startswith("error: input: ") or err.startswith("error: function: ")


def test_a_non_utf8_input_names_the_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff{}")
    assert cli.main(["check", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: input: cannot decode {str(path)!r} as UTF-8: ")
    assert err.count("\n") == 1


def grid_outcome(d):
    try:
        f = gridfunction_from_dict(d)
    except ValueError as exc:
        return "ValueError", str(exc)
    return f.nodes.tobytes(), f.values.tobytes(), f.values.shape


@pytest.mark.parametrize("nodes, values", [
    (np.array([0.0, 0.5, 1.0]), np.full((3, 1, 2), 0.5)),
    (np.array([0.0, 0.5, 1.0]), np.asfortranarray(np.full((3, 2, 2), 0.5))),
    (np.array([0.0, 0.5, 1.0]), np.full((3, 2, 4), 0.5)[:, :, ::2]),
    (np.array([0, 1, 2]), np.ones((3, 1, 2), dtype=int)),
    (np.array([0.0, 0.5, 1.0], dtype=np.float32), np.full((3, 1, 2), 0.5, dtype=np.float32)),
    (np.array([0.0, 0.5, 1.0], dtype=object), np.array([[[0.5, "x"]]] * 3, dtype=object)),
    (np.array([0.0, 0.5, 1.0]), np.full((3, 1, 3), 0.5)),
    (np.array([0.0, 0.5, 1.0]), np.full((3, 2), 0.5)),
    (np.array([0.0, 0.5, 1.0]), np.zeros((0, 1, 2))),
    (np.array([0.0, 0.5, 1.0]), np.zeros((3, 0, 2))),
    (np.array(0.5), np.full((3, 1, 2), 0.5)),
    (np.array([0.0, 1.0]), np.array([[[0.5, 2 ** 70]]] * 2, dtype=object)),
])
def test_library_callers_may_pass_arrays(nodes, values):
    d = {"a": 0.0, "b": 1.0 if nodes.ndim and nodes[-1] == 1 else 2.0, "nodes": nodes,
         "values": values}
    lists = dict(d, nodes=nodes.tolist(), values=values.tolist())
    assert grid_outcome(d) == grid_outcome(lists)


# ------------------------------------------------------- the two read paths

@pytest.fixture(params=READ_PATHS)
def strtold(request, monkeypatch):
    """Run the test on one read path of ArrayDecoder."""
    monkeypatch.setattr(jsonio, "_STRTOLD_READ", request.param)
    return request.param


def values_with(tokens) -> str:
    """A values array of pairs that holds ``tokens`` in order, padded with 0.5."""
    tokens = list(tokens) + ["0.5"] * (len(tokens) % 2)
    return "[%s]" % ", ".join("[[%s, %s]]" % pair for pair in zip(tokens[::2], tokens[1::2]))


def json_reads(monkeypatch, text) -> list:
    """The numbers that json read one at a time while ArrayDecoder read ``text``."""
    reads, decode = [], json.JSONDecoder.decode

    def counting(self, s, *args):
        if "[" not in s and "{" not in s:
            reads.append(s)
        return decode(self, s, *args)

    with monkeypatch.context() as m:
        m.setattr(json.JSONDecoder, "decode", counting)
        json.loads(text, cls=ArrayDecoder)
    return reads


def random_doubles(rng, count) -> list:
    """Finite doubles with random bits: every exponent, about a tenth of them subnormal."""
    bits = rng.integers(0, 2 ** 64, count, dtype=np.uint64, endpoint=False)
    bits[::10] &= np.uint64(2 ** 52 - 1)
    doubles = bits.view(np.float64)
    return doubles[np.isfinite(doubles)].tolist()


def midpoint_texts(doubles) -> list:
    """Exact decimals of the midpoints between each double and the next one up."""
    with localcontext() as ctx:
        ctx.prec = 1200  # exact: a double has at most 767 significant digits
        return [str((Decimal(a) + Decimal(math.nextafter(a, math.inf))) / 2) for a in doubles
                if math.nextafter(a, math.inf) < math.inf]


def last_digit_neighbours(texts) -> list:
    with localcontext() as ctx:
        ctx.prec = 1200
        out = []
        for text in texts:
            exact = Decimal(text)
            unit = Decimal((0, (1,), exact.as_tuple().exponent))
            out += [str(exact - unit), str(exact + unit)]
        return out


EDGE_NUMBERS = [
    "9007199254740993", "2.4703282292062327e-324", "2.4703282292062328e-324",
    "1.7976931348623158e308", "1.7976931348623159e308", "-0", "-0.0", "-0e5", "0e0", "1e-400",
    "-1e-400", "1E+05", "1e-05", "-0.5E-05", "1e+0", "0.0000001", str(10 ** 400),
    "0." + "1234567890" * 70, "-" + "9" * 300 + "." + "7" * 400,
    # JSON refuses the rest; strtold reads these whole
    "1.e5", "-.5", "+1e5", "01", "-01", "00", "-00.5", "1.", ".5", "5.e3",
    # and stops inside these
    "1e5.5", "1.2.3", "1..2", "--1", "-+1", "+-1", "1-2", "0-1", "1e", "1e+", "1ee5", "1e5e5",
    "e5", "E5", ".e1", "-", "+", ".", "1 2", "1\t2", "- 1",
]


def accepted_in_bulk(token) -> bool:
    """Whether json reads ``token`` as a number that fits a float."""
    try:
        float(json.loads(token))
    except (ValueError, OverflowError):
        return False
    return True


@pytest.mark.parametrize("token", EDGE_NUMBERS)
def test_edge_numbers_read_as_json_reads_them(token, strtold):
    want = ["nodes", "values"] if accepted_in_bulk(token) else []
    for at in (0, 3, 5):  # first, inside, last
        tokens = ["0.25"] * 6
        tokens[at] = token
        assert bulk_read(doc_text(values=values_with(tokens))) == want
    assert bulk_read(doc_text(nodes="[%s, 0.5, 1.0]" % token)) == want


def test_random_bit_patterns_read_bit_for_bit(strtold):
    doubles = random_doubles(np.random.default_rng(17), 20000)
    tokens = list(map(repr, doubles)) + ["%.17g" % x for x in doubles]
    assert bulk_read(doc_text(values=values_with(tokens))) == ["nodes", "values"]


def test_midpoints_between_doubles_and_their_neighbours(strtold, monkeypatch):
    doubles = random_doubles(np.random.default_rng(18), 1500) + [
        0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 0.5, 1.0, 2.0 ** 52,
        2.0 ** 53, 1.7976931348623155e308]
    doubles += [-x for x in doubles[-9:]]
    midpoints = midpoint_texts(doubles)
    text = doc_text(values=values_with(midpoints))
    assert bulk_read(text) == ["nodes", "values"]
    # json reads a number again only where the 64-bit result is a midpoint
    assert len(json_reads(monkeypatch, text)) == (len(midpoints) if strtold else 0)
    neighbours = doc_text(values=values_with(last_digit_neighbours(midpoints)))
    assert bulk_read(neighbours) == ["nodes", "values"]


def test_zeros_of_both_signs_need_no_json_read(strtold, monkeypatch):
    zeros = ["0.0", "-0.0", "-0", "0", "-0e5", " -0", "-0 ", "0.5"] * 1000
    text = doc_text(values=values_with(zeros))
    assert bulk_read(text) == ["nodes", "values"]
    assert json_reads(monkeypatch, text) == []
    values = json.loads(text, cls=ArrayDecoder)["function"]["values"].ravel()
    assert np.signbit(values).tolist() == [False, True, False, False, True, False, False,
                                           False] * 1000


@pytest.mark.skipif(not jsonio._STRTOLD_READ, reason="the strtold read does not run here")
def test_every_number_on_a_piece_edge(monkeypatch):
    """Pieces of one number each: every check and every json read sits at a piece edge."""
    monkeypatch.setattr(jsonio, "_PIECE", 1)
    good = [t for t in EDGE_NUMBERS if accepted_in_bulk(t)]
    good += midpoint_texts([0.0, 1.0, 5e-324, 1e300])
    assert bulk_read(doc_text(values=values_with(good))) == ["nodes", "values"]
    for bad in ("01", "-01", "1.", ".5", "+1", "1 2"):
        for at in (0, 1, len(good) - 1):
            assert bulk_read(doc_text(values=values_with(good[:at] + [bad] + good[at:]))) == []


@pytest.mark.parametrize("where", ["values", "hypothesis K"])
def test_an_integer_past_the_digit_limit_names_the_input(where, strtold, tmp_path, monkeypatch,
                                                         capsys):
    huge = "1" + "0" * 5000
    text = (doc_text(values=values_with([huge])) if where == "values"
            else doc_text().replace('"K": 2.0', '"K": ' + huge))
    status, out, err = cli_outcome(tmp_path, monkeypatch, capsys, text.encode())
    assert status == 1 and out == ""
    assert err.startswith(f"error: input: cannot read a number in {str(tmp_path / 'doc.json')!r}: ")
    assert "4300" in err and err.count("\n") == 1
