import cmath
import contextlib
import gc
import importlib.util
import io
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bochner_bounds
from bochner_bounds import cli, witness
from bochner_bounds.bounds import bound_report_to_dict, certify
from bochner_bounds.cli import main, render_table
from bochner_bounds.gridfn import Interval, sample
from bochner_bounds.hypotheses import Cone, Karamata
from bochner_bounds.jsonio import dumps

ROOT = Path(__file__).resolve().parents[1]
INPUTS = ROOT / "inputs"

SCHEMA = "bochner-bounds/1"


def write_doc(tmp_path, name, doc) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def constant_doc(value, hypothesis, n=5):
    nodes = [k / (n - 1) for k in range(n)]
    return {
        "schema": SCHEMA,
        "function": {
            "a": 0.0,
            "b": 1.0,
            "nodes": nodes,
            "values": [[[value.real, value.imag]] for _ in nodes],
            "interp": "linear",
        },
        "hypothesis": hypothesis,
    }


def test_certify_bundled_cone_arc(capsys):
    status = main(["certify", "--input", str(INPUTS / "cone_pi6_pi3.json")])
    doc = json.loads(capsys.readouterr().out)
    assert status == 0
    assert doc["hypothesis_verified"] is True
    assert doc["true_norm"] == pytest.approx(2 * math.sin(math.pi / 12), abs=1e-5)
    assert doc["lower_bound"] == pytest.approx(math.sqrt(0.5) * math.pi / 6, abs=1e-5)


def test_exit_codes_cover_exactly_the_contract(tmp_path, capsys):
    # passing input -> 0
    ok = constant_doc(1.0 + 0j, {"type": "unit_vector", "e": [[1, 0]], "k1": 0.5, "k2": 0.0})
    assert main(["check", "--input", write_doc(tmp_path, "ok.json", ok)]) == 0
    # falsified input -> 2
    bad = constant_doc(-1.0 + 0j, {"type": "unit_vector", "e": [[1, 0]], "k1": 0.5, "k2": 0.0})
    assert main(["check", "--input", write_doc(tmp_path, "bad.json", bad)]) == 2
    # malformed inputs -> 1
    p = tmp_path / "garbage.json"
    p.write_text("{oops", encoding="utf-8")
    assert main(["check", "--input", str(p)]) == 1
    assert main(["check", "--input", str(tmp_path / "missing.json")]) == 1
    wrong_schema = dict(ok, schema="wrong/0")
    assert main(["check", "--input", write_doc(tmp_path, "ws.json", wrong_schema)]) == 1
    unknown = dict(ok, hypothesis={"type": "nope"})
    assert main(["check", "--input", write_doc(tmp_path, "unk.json", unknown)]) == 1
    missing_field = dict(ok, hypothesis={"type": "unit_vector", "e": [[1, 0]], "k1": 0.5})
    assert main(["check", "--input", write_doc(tmp_path, "mf.json", missing_field)]) == 1
    mismatch = dict(ok, hypothesis={"type": "unit_vector", "e": [[1, 0], [0, 0]], "k1": 0.5, "k2": 0.0})
    assert main(["check", "--input", write_doc(tmp_path, "dim.json", mismatch)]) == 1
    infeasible = dict(ok, hypothesis={"type": "disk", "e": [[1, 0]], "eta1": 1.4, "eta2": 0.5})
    assert main(["check", "--input", write_doc(tmp_path, "inf.json", infeasible)]) == 1
    capsys.readouterr()
    # every bundled function -> 0 or 2, with each of its nodes checked
    for path in sorted(INPUTS.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if "function" in doc:
            assert main(["check", "--input", str(path)]) in (0, 2), path.name
            report = json.loads(capsys.readouterr().out)
            assert report["checked_points"] == len(doc["function"]["nodes"]), path.name


def test_error_messages_name_the_offending_field(tmp_path, capsys):
    ok = constant_doc(1.0 + 0j, {"type": "unit_vector", "e": [[1, 0]], "k1": 0.5, "k2": 0.0})
    main(["check", "--input", write_doc(tmp_path, "unk.json", dict(ok, hypothesis={"type": "zebra"}))])
    assert "zebra" in capsys.readouterr().err
    main(["check", "--input", write_doc(tmp_path, "mf.json",
                                        dict(ok, hypothesis={"type": "cone", "phi1": 0.1}))])
    assert "phi2" in capsys.readouterr().err
    mismatch = dict(ok, hypothesis={"type": "unit_vector", "e": [[1, 0], [0, 0]],
                                    "k1": 0.5, "k2": 0.0})
    main(["check", "--input", write_doc(tmp_path, "dim.json", mismatch)])
    assert "dimension mismatch" in capsys.readouterr().err


def test_hypothesis_refusals_name_the_section_once(tmp_path, capsys):
    ok = constant_doc(1.0 + 0j, {"type": "k_cond", "e": [[1, 0]], "K": 2.0})
    cases = [
        ({"type": "zebra"}, "hypothesis: type: unknown tag 'zebra'"),
        ({"type": "k_cond", "e": [[1, 0]]}, "hypothesis: K: missing for type 'k_cond'"),
        ({"type": "k_cond", "e": [[1, 0]], "K": "x"}, "hypothesis: K: expected JSON numbers"),
        ({"type": "k_cond", "e": [[1, 0]], "K": 0.5}, "hypothesis: K must be finite and >= 1"),
        ([2.0], "hypothesis: expected an object"),
    ]
    for i, (hyp, message) in enumerate(cases):
        path = write_doc(tmp_path, f"h{i}.json", dict(ok, hypothesis=hyp))
        for command in ("check", "certify", "witness", "bench"):
            assert main([command, "--input", path]) == 1, (hyp, command)
            err = capsys.readouterr().err
            assert err.startswith(f"error: {message}"), (command, err)
            assert err.count("hypothesis") == 1, (command, err)
    del ok["hypothesis"]
    assert main(["check", "--input", write_doc(tmp_path, "none.json", ok)]) == 1
    assert capsys.readouterr().err == "error: hypothesis: missing\n"


def test_non_finite_and_wrong_typed_documents_exit_1_naming_the_field(tmp_path, capsys):
    hyp = {"type": "unit_vector", "e": [[1, 0]], "k1": 0.5, "k2": 0.0}
    nan_values = constant_doc(1.0 + 0j, hyp)
    nan_values["function"]["values"][2] = [[math.nan, 0.0]]
    m_bounds = {"type": "m_bounds", "e": [[1, 0]], "m1": 0.5, "M1": math.inf, "m2": 0.5, "M2": 2.0}
    cases = [
        (nan_values, ("check", "certify", "integrate"), "values"),
        (constant_doc(1.0 + 0j, m_bounds), ("check", "certify"), "M1"),
        (constant_doc(1.0 + 0j, {"type": "orthonormal", "vectors": [[[1, 0]]], "ks": 0.5,
                                 "hs": [0.1]}), ("check", "certify"), "error: hypothesis: ks: "),
        (constant_doc(1.0 + 0j, {"type": "k_cond", "e": [[1, 0]], "K": [2]}),
         ("check", "certify"), "error: hypothesis: K: "),
    ]
    witness_request = {"schema": SCHEMA, "hypothesis": hyp, "node_count": [33]}
    cases.append((witness_request, ("witness",), "node_count"))
    bench_request = {"schema": SCHEMA, "hypothesis": hyp, "generator": {"rmin": math.inf}}
    cases.append((bench_request, ("bench",), "rmin"))
    # node counts are JSON integers from 2 to a cap checked before allocating; 2.9 is not 2
    for count in (2.9, True, 1, 10**11):
        cases.append((dict(witness_request, node_count=count), ("witness",), "node_count"))
        cases.append((dict(bench_request, generator={"nodes": count}), ("bench",),
                      "generator.nodes"))
    cases.append((dict(witness_request, node_count=33, interval={"a": "x", "b": 1}),
                  ("witness",), "interval"))
    # integers too large for a float, and numbers that are not JSON numbers
    huge = 10**400
    function_cases = [
        ({"a": huge}, "function: a: "),
        ({"b": huge}, "function: b: "),
        ({"nodes": [0, 0.25, huge, 0.75, 1]}, "function: nodes: "),
        ({"values": [[[huge, 0]]] * 5}, "function: values: "),
        ({"nodes": [0, 0.25, "0.5", 0.75, 1]}, "function: nodes: "),
        ({"a": "0"}, "function: a: "),
        ({"values": [[[1, 0]]] * 4 + [[[True, 0]]]}, "function: values: "),
        ({"values": [[[0.6, 0.8, 99]]] * 5}, "function: values: "),
        ({"values": [[]] * 5}, "function: values: "),
        ({"interp": "cubic"}, "error: function: interp: unknown interpolation 'cubic'"),
        ({"interp": 3}, "error: function: interp: unknown interpolation 3"),
    ]
    ok = constant_doc(1.0 + 0j, hyp)
    for change, field in function_cases:
        doc = dict(ok, function=dict(ok["function"], **change))
        cases.append((doc, ("check", "certify", "integrate"), field))
    for change, field in (({"k1": huge}, "error: hypothesis: k1: "),
                          ({"e": [[huge, 0]]}, "error: hypothesis: e: "),
                          ({"k1": "0.5"}, "error: hypothesis: k1: ")):
        cases.append((constant_doc(1.0 + 0j, dict(hyp, **change)), ("check", "certify"), field))
    cases.append((dict(witness_request, node_count=33, interval={"a": huge, "b": 1}),
                  ("witness",), "interval.a"))
    cases.append((dict(bench_request, generator={"rmax": huge}), ("bench",), "generator.rmax"))
    # refusals of the interval and the generator as a whole name them too
    cases.append((dict(bench_request, generator={"interval": {"a": "x", "b": 1}}), ("bench",),
                  "error: generator.interval.a: "))
    cases.append((dict(bench_request, generator={"interval": {"a": 1, "b": 0}}), ("bench",),
                  "error: generator.interval: "))
    cases.append((dict(witness_request, node_count=33, interval={"a": 1, "b": 0}), ("witness",),
                  "error: interval: "))
    cases.append((dict(bench_request, generator={"rmin": 2.0, "rmax": 1.0}), ("bench",),
                  "error: generator: "))
    # refusals of a section that is not an object, and of a family's constant count
    cases.append((dict(ok, function=[1, 2]), ("check", "certify", "integrate"),
                  "error: function: expected an object with fields a, b, nodes, values"))
    cases.append((dict(bench_request, generator=[1]), ("bench",),
                  "error: generator: must be an object"))
    cases.append((dict(witness_request, node_count=33, interval=[0, 1]), ("witness",),
                  "error: interval: expected an object with fields a, b"))
    two_vectors = {"type": "orthonormal", "vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                   "ks": [0.3], "hs": [0.3, 0.4]}
    cases.append((constant_doc(1.0 + 0j, two_vectors), ("check", "certify"),
                  "error: hypothesis: ks/hs must have one entry per family vector (2)"))
    for i, (doc, commands, field) in enumerate(cases):
        path = tmp_path / f"doc{i}.json"
        path.write_text(json.dumps(doc).replace("Infinity", "1e999"), encoding="utf-8")
        for command in commands:
            assert main([command, "--input", str(path)]) == 1, (i, command)
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
            assert field in err, (i, command, err)
    assert main(["bench", "--input", str(INPUTS / "bench_cone.json"), "--trials", str(10**11)]) == 1
    assert capsys.readouterr().err.startswith("error: trials: ")
    unwritable = str(tmp_path / "missing_dir" / "out.json")
    assert main(["integrate", "--input", str(INPUTS / "disk_lens.json"), "--output", unwritable]) == 1
    assert capsys.readouterr().err.startswith("error: output: ")


def test_finite_documents_far_outside_their_disks_exit_2(tmp_path, capsys):
    # the raw squares of the distances to the ball centres overflow; each row
    # is measured at its own power-of-two scale, so the slack is finite and no
    # warning is raised
    disk = {"type": "disk", "e": [[1, 0]], "eta1": 0.9, "eta2": 0.9}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in (1e200, 1e308):
            path = write_doc(tmp_path, "far.json", constant_doc(value + 0j, disk))
            assert main(["check", "--input", path]) == 2
            report = json.loads(capsys.readouterr().out)
            assert report["worst_margin"] == pytest.approx(-value, rel=1e-15)
            assert main(["certify", "--input", path]) == 2
            assert json.loads(capsys.readouterr().out)["hypothesis_verified"] is False


# the default (model) rule, and the two rules on the nodes
QUAD_FLAGS = ([], ["--quad-refine", "1"],
              ["--quad-kind", "trapezoid-on-nodes", "--quad-refine", "1"])


def test_values_past_the_float_range_exit_1_with_one_error_line(tmp_path, capsys):
    # |f| = 2.4e308: the integrals are inf, and nothing on the way warns
    unit_vector = {"type": "unit_vector", "e": [[1, 0]], "k1": 0.5, "k2": 0.0}
    disk = {"type": "disk", "e": [[1, 0]], "eta1": 0.9, "eta2": 0.9}
    cases = [(unit_vector, "integrate", "norm_integral"), (unit_vector, "certify", "lower_bound"),
             (disk, "check", "worst_margin")]
    for hyp, command, field in cases:
        path = write_doc(tmp_path, "over.json", constant_doc(1.7e308 + 1.7e308j, hyp))
        for flags in QUAD_FLAGS if command != "check" else ([],):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([command, "--input", path, *flags]) == 1, (command, flags)
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1, (command, flags, err)
            assert err.startswith(f"error: {field}: "), (command, flags, err)


def test_node_spans_at_the_top_of_the_float_range(tmp_path, capsys):
    # f = 1: an integral of 1e308 is reported under every rule; a span past
    # the float range gives infinite weights, which exit 1 with one line and
    # no warning on the way
    hyp = {"type": "unit_vector", "e": [[1, 0]], "k1": 0.5, "k2": 0.0}
    for nodes in ([0.0, 5e307, 1e308], [0.0, 1e308], [-1e308, 0.0, 1e308], [-1e308, 1e308]):
        for interp in ("linear", "constleft"):
            doc = constant_doc(1 + 0j, hyp, n=len(nodes))
            doc["function"].update(a=nodes[0], b=nodes[-1], nodes=nodes, interp=interp)
            path = write_doc(tmp_path, "span.json", doc)
            in_range = nodes[0] == 0.0
            for command, flags in [("check", [])] + [(c, f) for c in ("certify", "integrate")
                                                      for f in QUAD_FLAGS]:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    status = main([command, "--input", path, *flags])
                out, err = capsys.readouterr()
                case = (nodes, interp, command, flags, err)
                if in_range or command == "check":
                    assert status == 0 and err == "", case
                    if command == "integrate":
                        assert json.loads(out)["norm_integral"] == pytest.approx(1e308, rel=1e-15), case
                else:
                    assert status == 1 and out == "" and err.count("\n") == 1, case
                    assert err.startswith("error: "), case


def test_spans_past_the_float_range_with_finite_spacings(tmp_path, capsys):
    # nodes 1e308 apart: the span overflows but no spacing does.  f = 1e-300
    # integrates to 2e8 under every rule; the tent f = (1, 2, 1) 1e-300 shows
    # the rule --quad-refine 1 takes: Simpson's 10/3 e8 on the even grid, the
    # model's 3e8 on the uneven one
    hyp = {"type": "unit_vector", "e": [[1, 0]], "k1": 0.5, "k2": 0.0}
    for nodes, refined_tent in (([-1e308, 0.0, 1e308], 1e8 * 10 / 3),
                                ([-1e308, -1e307, 1e308], 3e8)):
        for values, integrals in (([1, 1, 1], (2e8, 2e8, 2e8)),
                                  ([1, 2, 1], (3e8, refined_tent, 3e8))):
            doc = constant_doc(0j, hyp, n=3)
            doc["function"].update(a=nodes[0], b=nodes[-1], nodes=nodes,
                                   values=[[[v * 1e-300, 0.0]] for v in values])
            path = write_doc(tmp_path, "span.json", doc)
            runs = [("check", [], None)] + [(c, f, i) for c in ("certify", "integrate")
                                            for f, i in zip(QUAD_FLAGS, integrals)]
            for command, flags, integral in runs:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    status = main([command, "--input", path, *flags])
                out, err = capsys.readouterr()
                case = (nodes, values, command, flags, err)
                assert status == 0 and err == "", case
                field = {"certify": "true_norm", "integrate": "norm_integral"}.get(command)
                if field:
                    assert json.loads(out)[field] == pytest.approx(integral, rel=1e-14), case


def test_an_interval_that_is_not_the_node_span_exits_1_naming_the_function(tmp_path, capsys):
    # nodes overrunning a short interval, and nodes covering only part of one
    for name, interval, nodes in (("overrun", (0.0, 1e-14), [0.0, 5e-15, 1.5e-14]),
                                  ("part", (-1e-13, 1e-14), [0.0, 1e-14])):
        doc = constant_doc(1 + 0j, {"type": "k_cond", "e": [[1, 0]], "K": 2.0}, n=len(nodes))
        doc["function"].update(a=interval[0], b=interval[1], nodes=nodes)
        path = write_doc(tmp_path, f"{name}.json", doc)
        for command in ("check", "certify", "integrate"):
            assert main([command, "--input", path]) == 1, (name, command)
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1, (name, command, err)
            assert err.startswith("error: function: nodes must start at a and end at b"), err


def test_integrate_is_scale_safe(tmp_path, capsys):
    hyp = {"type": "unit_vector", "e": [[1, 0]], "k1": 0.5, "k2": 0.0}
    ramp = constant_doc(0j, hyp, n=3)
    ramp["function"]["values"][2] = [[0.0, 1.48978995e-160]]
    docs = {"huge": constant_doc(1e308 + 0j, hyp), "1e200": constant_doc(1e200 + 0j, hyp),
            "ramp": ramp}
    for name in list(docs):  # and a constleft copy of each, whose rectangles are on the nodes
        docs[f"{name}_constleft"] = json.loads(json.dumps(docs[name]))
        docs[f"{name}_constleft"]["function"]["interp"] = "constleft"
    for name, doc in docs.items():
        path = write_doc(tmp_path, f"{name}.json", doc)
        for flags in QUAD_FLAGS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no overflow or underflow warning either
                assert main(["integrate", "--input", path, *flags]) == 0, (name, flags)
            out = json.loads(capsys.readouterr().out)
            assert out["triangle_slack"] >= 0, (name, flags, out)
            if name == "huge" and not flags:
                assert out["triangle_slack"] == 0, out


def _small_tail_doc(head, hypothesis):
    """constleft ``head`` on [0, 1e-9), then -1e-10 * head: outside its class."""
    doc = constant_doc(0j, hypothesis, n=3)
    doc["function"].update(nodes=[0.0, 1e-9, 1.0], interp="constleft",
                           values=[[[v.real, v.imag]] for v in (head, -1e-10 * head, -1e-10 * head)])
    return doc


def test_cone_checks_are_scale_free(tmp_path, capsys):
    # cone margins are relative to the sup norm of f on each panel, so the
    # absolute --tol cannot pass a function, or a part of one, for being small
    kcond = constant_doc(0j, {"type": "k_cond", "e": [[1, 0]], "K": 1.0}, n=3)
    kcond["function"]["values"] = [[[1e-12, 0.0]], [[-1e-12, 0.0]], [[1e-12, 0.0]]]
    kcond["function"]["interp"] = "constleft"
    ramp = constant_doc(0j, {"type": "unit_vector", "e": [[1, 0]], "k1": 0.0, "k2": 1.0}, n=3)
    ramp["function"]["values"][2] = [[1.49e-160, 0.0]]
    # node norms whose squares underflow
    kcond_170 = json.loads(json.dumps(kcond).replace("e-12", "e-170"))
    kcond_170["function"]["interp"] = "linear"
    ray = cmath.exp(0.7j)
    tails = [_small_tail_doc(ray, {"type": "cone", "phi1": lo, "phi2": hi})
             for lo, hi in ((0.7, 0.7), (0.1, 0.5))]
    tails.append(_small_tail_doc(1 + 0j, {"type": "k_cond", "e": [[1, 0]], "K": 1.0}))
    docs = [("kcond.json", kcond), ("ramp.json", ramp), ("kcond_170.json", kcond_170)]
    docs += [(f"tail_{i}.json", doc) for i, doc in enumerate(tails)]
    # node values 300 decades apart: each node is measured at its own scale
    for interp in ("constleft", "linear"):
        wide = json.loads(json.dumps(kcond))
        wide["function"].update(values=[[[1e150, 0.0]], [[-1e-150, 0.0]], [[-1e-150, 0.0]]],
                                interp=interp)
        docs.append((f"wide_{interp}.json", wide))
    for name, doc in docs:
        path = write_doc(tmp_path, name, doc)
        assert main(["check", "--input", path]) == 2, name
        assert json.loads(capsys.readouterr().out)["worst_margin"] < -0.5
        assert main(["certify", "--input", path]) == 2, name
        assert json.loads(capsys.readouterr().out)["hypothesis_verified"] is False
    # and node norms whose squares overflow: this constant is in its class
    hyp = {"type": "unit_vector", "e": [[1, 0]], "k1": 0.5, "k2": 0.0}
    path = write_doc(tmp_path, "huge.json", constant_doc(1e308 + 0j, hyp))
    for command in ("check", "certify"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--input", path]) == 0, command
        capsys.readouterr()
    # a constant whose raw norm overflows, outside its class by the same margin as at norm 1
    path = write_doc(tmp_path, "huge_out.json", constant_doc(1.7e308 + 1.7e308j, dict(hyp, k1=0.9)))
    assert main(["check", "--input", path]) == 2
    assert json.loads(capsys.readouterr().out)["worst_margin"] == -0.19289321881345245


def _set_collecting(on: bool) -> None:
    gc.enable() if on else gc.disable()


@pytest.mark.parametrize("collecting", [True, False])
def test_main_restores_the_collector_state_on_every_exit(collecting, tmp_path, capsys,
                                                         monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    cases = [(0, INPUTS / "cone_pi6_pi3.json"), (1, bad), (2, INPUTS / "failing_unit_vector.json")]
    before = gc.isenabled()
    frozen = gc.get_freeze_count()
    try:
        for status, path in cases:
            _set_collecting(collecting)
            assert main(["certify", "--input", str(path)]) == status
            assert gc.isenabled() is collecting, status
            assert gc.get_freeze_count() == frozen, status  # only the process entry freezes
        seen = []

        def failing_run(config):
            seen.append(gc.isenabled())
            raise TypeError("escapes main")

        monkeypatch.setattr(cli, "run", failing_run)
        _set_collecting(collecting)
        with pytest.raises(TypeError, match="escapes main"):
            main(["certify", "--input", str(INPUTS / "cone_pi6_pi3.json")])
        assert gc.isenabled() is collecting
        assert gc.get_freeze_count() == frozen
        assert seen == [False]  # the command itself ran with collection paused
    finally:
        _set_collecting(before)
    capsys.readouterr()


def test_paused_collection_holds_no_garbage_that_grows_per_trial(capsys):
    bench = ["bench", "--input", str(INPUTS / "bench_cone.json"), "--trials"]
    before = gc.isenabled()
    gc.disable()
    try:
        gc.collect()  # what earlier tests left behind
        counts = []
        for trials in ("10", "2000"):
            assert main(bench + [trials]) == 0
            counts.append(gc.collect())
    finally:
        _set_collecting(before)
    capsys.readouterr()
    assert counts[0] == counts[1], counts


def test_usage_errors_and_unread_flags_exit_1(capsys):
    disk = str(INPUTS / "disk_lens.json")
    witness = str(INPUTS / "witness_unit_vector.json")
    bench = str(INPUTS / "bench_cone.json")
    failing = str(INPUTS / "failing_unit_vector.json")
    cases = [
        ([], "command"),
        (["check"], "--input"),
        (["nope", "--input", disk], "command"),
        (["certify", "--input", disk, "--quad-refine", "x"], "--quad-refine"),
        (["certify", "--input", disk, "--quad-kind", "gauss"], "--quad-kind"),
        # each subcommand accepts only the flags it reads
        (["check", "--input", disk, "--quad-refine", "0"], "--quad-refine"),
        (["check", "--input", disk, "--quad-refine", "1"], "--quad-refine"),
        (["check", "--input", disk, "--quad-kind", "trapezoid-on-nodes"], "--quad-kind"),
        (["witness", "--input", witness, "--tol", "5"], "--tol"),
        (["witness", "--input", witness, "--quad-kind", "trapezoid-on-nodes"], "--quad-kind"),
        (["integrate", "--input", disk, "--tol", "5"], "--tol"),
        (["bench", "--input", bench, "--tol", "1e-300"], "--tol"),
        (["integrate", "--input", disk, "--seed", "1"], "--seed"),
        (["check", "--input", disk, "--table"], "--table"),
        (["bench", "--input", bench, "--seed", "-5"], "seed: must be >= 0, got -5"),
        # an infinite tolerance would pass the failing function
        (["check", "--input", failing, "--tol", "inf"], "tol: must be finite and > 0, got inf"),
        (["certify", "--input", failing, "--tol", "inf"], "tol: must be finite and > 0, got inf"),
        (["check", "--input", failing, "--tol", "0"], "tol: must be finite and > 0, got 0.0"),
    ]
    for argv, field in cases:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err, (argv, err)
    with pytest.raises(SystemExit) as exc:
        main(["certify", "-h"])
    assert exc.value.code == 0
    assert "--quad-refine" in capsys.readouterr().out


def test_op_cost_prints_the_cost_of_one_command(capsys):
    spec = importlib.util.spec_from_file_location("op_cost", ROOT / "scripts" / "op_cost.py")
    op_cost = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(op_cost)
    argv = ["certify", "--input", str(INPUTS / "cone_pi6_pi3.json")]
    assert op_cost.main(["--runs", "3"] + argv) == 0
    head, *rows = capsys.readouterr().out.splitlines()
    assert head == "runs 3, exit status 0: " + " ".join(argv)
    assert [row.split()[0] for row in rows] == ["wall_ms", "user_ms", "sys_ms", "minflt"]
    assert all(float(row.split()[1]) >= 0 for row in rows)
    assert op_cost.main(["--runs", "2", "certify", "--input", str(INPUTS / "missing.json")]) == 1
    assert capsys.readouterr().err.startswith("error: input: cannot read ")


@pytest.mark.parametrize("command, name", [("certify", "cone_pi6_pi3.json"),
                                           ("integrate", "cone_pi6_pi3.json"),
                                           ("bench", "bench_cone.json")])
@pytest.mark.parametrize("refine", ["0", "-3"])
def test_a_refinement_below_1_names_its_field(command, name, refine, capsys):
    assert main([command, "--input", str(INPUTS / name), "--quad-refine", refine]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: refinement: must be >= 1, got {refine}\n"


def test_witness_round_trip_through_files(tmp_path, capsys):
    out = tmp_path / "witness.json"
    status = main(["witness", "--input", str(INPUTS / "witness_unit_vector.json"),
                   "--output", str(out)])
    assert status == 0
    status = main(["certify", "--input", str(out)])
    doc = json.loads(capsys.readouterr().out)
    assert status == 0
    assert abs(doc["gap"]) <= 1e-12
    assert abs(doc["equality_residual"]) <= 1e-12


def test_witness_refuses_a_csv_output_before_writing(tmp_path, capsys):
    out = tmp_path / "w.csv"
    assert main(["witness", "--input", str(INPUTS / "witness_unit_vector.json"),
                 "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: output: ") and repr(str(out)) in err, err
    assert not out.exists()


def test_witness_rejects_off_surface_hypothesis(tmp_path, capsys):
    doc = {
        "schema": SCHEMA,
        "hypothesis": {"type": "unit_vector", "e": [[1, 0]], "k1": 0.5, "k2": 0.5},
    }
    assert main(["witness", "--input", write_doc(tmp_path, "w.json", doc)]) == 1
    assert "coefficient" in capsys.readouterr().err


def test_bench_zero_violations_and_csv(tmp_path, capsys):
    out = tmp_path / "stats.csv"
    status = main(["bench", "--input", str(INPUTS / "bench_cone.json"),
                   "--trials", "25", "--seed", "1", "--output", str(out)])
    assert status == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].split(",")[:2] == ["schema", "kind"]
    assert ",25," in "," + lines[1] + ","
    capsys.readouterr()


def test_bench_is_seed_deterministic(tmp_path, capsys):
    argv = ["bench", "--input", str(INPUTS / "bench_cone.json"), "--trials", "10", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_output_uses_17_significant_digits(capsys):
    main(["certify", "--input", str(INPUTS / "disk_lens.json")])
    out = capsys.readouterr().out
    assert "0.70710678118654757" in out  # sqrt(2)/2 at 17 significant digits


def test_integrate_document(capsys):
    status = main(["integrate", "--input", str(INPUTS / "disk_lens.json")])
    doc = json.loads(capsys.readouterr().out)
    assert status == 0
    assert doc["kind"] == "integral_report"
    assert doc["vector"][0] == pytest.approx([0.5, 0.5])
    assert doc["triangle_slack"] >= -1e-12


def test_quad_flags_are_honored(capsys):
    main(["certify", "--input", str(INPUTS / "cone_pi6_pi3.json"), "--quad-refine", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["true_norm"] == pytest.approx(2 * math.sin(math.pi / 12), rel=1e-9)
    assert doc["lower_bound"] == pytest.approx(math.sqrt(0.5) * math.pi / 6, rel=1e-9)


def test_render_table_orders_and_labels():
    import cmath

    f = sample(lambda t: cmath.exp(1j * t), Interval(math.pi / 6, math.pi / 3), 65)
    cone = bound_report_to_dict(certify(f, Cone(math.pi / 6, math.pi / 3)))
    karamata = bound_report_to_dict(certify(f, Karamata(math.pi / 3)))
    text = render_table([karamata, cone])
    lines = text.strip().split("\n")
    assert lines[0].split()[0] == "hypothesis"
    assert lines[1].startswith("cone")  # sorted by tag
    assert lines[2].startswith("karamata")
    assert lines[2].rstrip().endswith("no")
    # the cone coefficient beats the symmetric-window baseline on the same data
    assert float(lines[1].split()[1]) > float(lines[2].split()[1])


def test_certify_table_exit_codes(tmp_path, capsys):
    assert main(["certify", "--input", str(INPUTS / "cone_pi6_pi3.json"), "--table"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[0] == "hypothesis" and lines[1].startswith("cone")
    assert main(["certify", "--input", str(INPUTS / "failing_unit_vector.json"), "--table"]) == 2
    assert capsys.readouterr().out.splitlines()[1].startswith("unit_vector")
    # past the float range, the table refuses the number as the JSON report does
    hyp = {"type": "unit_vector", "e": [[1, 0]], "k1": 0.5, "k2": 0.0}
    path = write_doc(tmp_path, "over.json", constant_doc(1.7e308 + 1.7e308j, hyp))
    assert main(["certify", "--input", path, "--table"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: lower_bound: cannot serialize non-finite number inf\n"


def test_render_table_single_row_and_empty():
    f = sample(lambda t: 1.0 + 0.2j * (t - 0.5), Interval(0, 1), 9)
    rep = bound_report_to_dict(certify(f, Karamata(0.5)))
    text = render_table([rep])
    assert len(text.strip().split("\n")) == 2
    with pytest.raises(ValueError):
        render_table([])


def test_render_table_refuses_an_infinite_tol(capsys):
    assert main(["certify", "--input", str(INPUTS / "failing_unit_vector.json")]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["gap"] > 0.4 and doc["equality_residual"] > 1.4
    assert render_table([doc]).splitlines()[1].endswith("no")
    with pytest.raises(ValueError, match=r"^tol: must be finite and > 0, got inf$"):
        render_table([doc], math.inf)


json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10), st.floats(-2, 2, allow_nan=False), st.text(max_size=8)
)
json_docs = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.dictionaries(st.text(max_size=8), children, max_size=4)
    ),
    max_leaves=12,
)


@settings(max_examples=30, deadline=None)
@given(json_docs)
def test_exit_codes_stay_in_contract_for_arbitrary_documents(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("check", "certify", "witness", "bench", "integrate"):
        status = main([command, "--input", str(path)])
        assert status in (0, 1, 2)


def test_console_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bochner_bounds.cli", "integrate",
         "--input", str(INPUTS / "disk_lens.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kind"] == "integral_report"


# a bad value of a typed flag of each subcommand; witness has no typed flag
TYPED_FLAG = {"check": "--tol", "certify": "--quad-refine", "integrate": "--quad-refine",
              "bench": "--trials", "witness": None}


def _parse(parser, argv) -> str:
    """What parsing ``argv`` reports: help text on stdout, or the error message."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            parser.parse_args(argv)
    except SystemExit as exc:
        return f"exit {exc.code}: {out.getvalue()}"
    except ValueError as exc:
        return f"error: {exc}"
    return "parsed"


@pytest.mark.parametrize("name", cli.COMMANDS)
def test_one_subcommand_parser_reads_like_the_full_parser(name):
    cases = [[name, "-h"], [name], [name, "--input", "x", "--bogus", "1"]]
    if TYPED_FLAG[name]:
        cases.append([name, "--input", "x", TYPED_FLAG[name], "x"])
    for argv in cases:
        texts = [_parse(cli._parser(commands), argv) for commands in ((name,), cli.COMMANDS)]
        assert texts[0] == texts[1], argv
        assert texts[0].startswith((f"exit 0: usage: bochner-bounds {name} ", "error: ")), texts


def test_main_builds_the_named_subparser_only(monkeypatch, capsys):
    built, full = [], cli._parser

    def parser(commands):
        built.append(tuple(commands))
        return full(commands)

    monkeypatch.setattr(cli, "_parser", parser)
    for argv in (["integrate", "--input", str(INPUTS / "disk_lens.json")], ["nope"], ["-h"], []):
        try:
            main(argv)
        except SystemExit:
            pass
    capsys.readouterr()
    assert built == [("integrate",)] + [cli.COMMANDS] * 3


def test_fresh_cli_runs_load_witness_only_for_witness_and_bench():
    for command, path, *flags in (
        ("check", "cone_pi6_pi3.json"), ("certify", "cone_pi6_pi3.json"),
        ("integrate", "disk_lens.json"), ("witness", "witness_unit_vector.json"),
        ("bench", "bench_cone.json", "--trials", "10"),
    ):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "bochner_bounds.cli", command,
             "--input", str(INPUTS / path), *flags],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr[-500:]
        loaded = "bochner_bounds.witness" in proc.stderr
        assert loaded is (command in ("witness", "bench")), command


def test_console_entry_runs_the_command_then_freezes():
    code = ("import gc, sys; from bochner_bounds import cli; "
            "status = cli.console_main(); print(status, gc.get_freeze_count() > 0, file=sys.stderr)")
    proc = subprocess.run(
        [sys.executable, "-c", code, "integrate", "--input", str(INPUTS / "disk_lens.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kind"] == "integral_report"
    assert proc.stderr == "0 True\n"


@pytest.mark.parametrize("name", bochner_bounds._WITNESS_NAMES)
def test_package_resolves_the_witness_names_on_first_use(name):
    assert name in witness.__all__
    assert getattr(bochner_bounds, name) is getattr(witness, name)
    namespace = {}
    exec(f"from bochner_bounds import {name}", namespace)
    assert namespace[name] is getattr(witness, name)
    assert name in dir(bochner_bounds)
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        bochner_bounds.not_a_name
