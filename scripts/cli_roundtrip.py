#!/usr/bin/env python3
"""End-to-end CLI exercise over the bundled inputs.

Verifies the exit-code contract (0 verified / 2 falsified / 1 malformed),
the witness -> certify round trip, byte-stable JSON output, named errors
for non-integer, too small and oversized counts, for integers too large for
a float and for numbers that are not JSON numbers, a byte-exact in-process
re-render of a 1e4-node witness, and a nonnegative triangle slack from
``integrate`` on every bundled function under both the default rule and
``--quad-refine 1``, and on a tiny ramp and a constant 1e308 function,
``linear`` and ``constleft``, under the default rule and both rules on the
nodes, with no warning on stderr.  It also checks that ``check`` and ``certify``
exit 2 on six functions that break their class only at a tiny scale, or
only where they are tiny next to their largest value, that
``check`` reads exactly the nodes of every bundled function, and that a
usage error and a flag the subcommand does not read exit 1.  Any traceback on stderr counts
as a failure.  Prints one line per check and exits nonzero if any check
failed.  The package must be importable: installed, or ``PYTHONPATH=src``.
"""

from __future__ import annotations

import itertools
import json
import math
import pathlib
import subprocess
import sys
import tempfile

from bochner_bounds.gridfn import gridfunction_from_dict, gridfunction_to_dict
from bochner_bounds.hypotheses import hypothesis_from_dict, hypothesis_to_dict
from bochner_bounds.jsonio import dumps

ROOT = pathlib.Path(__file__).resolve().parents[1]
CLI = [sys.executable, "-m", "bochner_bounds.cli"]


TRACEBACKS: list[str] = []


def run(*args: str) -> subprocess.CompletedProcess:
    r = subprocess.run(
        CLI + list(args), capture_output=True, text=True, cwd=ROOT,
    )
    if "Traceback" in r.stderr:
        TRACEBACKS.append(" ".join(args[:1]))
    return r


def expect(label: str, ok: bool, detail: str = "") -> bool:
    print(f"[{'ok' if ok else 'FAIL'}] {label}" + (f" ({detail})" if detail else ""))
    return ok


def main() -> int:
    inputs = ROOT / "inputs"
    good = True
    with tempfile.TemporaryDirectory() as tmp:
        tmpdir = pathlib.Path(tmp)

        r = run("certify", "--input", str(inputs / "cone_pi6_pi3.json"))
        doc = json.loads(r.stdout)
        good &= expect("certify cone arc exits 0", r.returncode == 0)
        good &= expect(
            "cone arc true_norm near 2 sin(pi/12)",
            abs(doc["true_norm"] - 0.5176380902050415) < 1e-5,
            f"true_norm={doc['true_norm']}",
        )
        good &= expect(
            "cone arc lower bound near sqrt(2)/2 * pi/6",
            abs(doc["lower_bound"] - 0.3702402448465305) < 1e-5,
            f"lower_bound={doc['lower_bound']}",
        )

        r2 = run("certify", "--input", str(inputs / "cone_pi6_pi3.json"))
        good &= expect("certify output is byte-stable", r.stdout == r2.stdout)

        wpath = tmpdir / "witness.json"
        r = run("witness", "--input", str(inputs / "witness_unit_vector.json"),
                "--output", str(wpath))
        good &= expect("witness emission exits 0", r.returncode == 0)
        r = run("certify", "--input", str(wpath))
        doc = json.loads(r.stdout)
        good &= expect("witness round trip exits 0", r.returncode == 0)
        good &= expect(
            "witness round trip gap <= 1e-12", abs(doc["gap"]) <= 1e-12, f"gap={doc['gap']}"
        )

        r = run("check", "--input", str(inputs / "failing_unit_vector.json"))
        good &= expect("falsified check exits 2", r.returncode == 2)
        doc = json.loads(r.stdout)
        good &= expect(
            "falsified check reports worst margin -1.5",
            abs(doc["worst_margin"] + 1.5) < 1e-12 and doc["worst_t"] == 0.0,
        )

        r = run("bench", "--input", str(inputs / "bench_cone.json"),
                "--trials", "100", "--seed", "0")
        doc = json.loads(r.stdout)
        good &= expect("bench exits 0 with zero violations",
                       r.returncode == 0 and doc["violations"] == 0)

        bad = tmpdir / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        good &= expect("malformed JSON exits 1", run("check", "--input", str(bad)).returncode == 1)

        unknown = tmpdir / "unknown.json"
        unknown.write_text(
            json.dumps({"schema": "bochner-bounds/1",
                        "function": json.loads((inputs / "disk_lens.json").read_text())["function"],
                        "hypothesis": {"type": "nope"}}),
            encoding="utf-8",
        )
        good &= expect("unknown hypothesis tag exits 1",
                       run("check", "--input", str(unknown)).returncode == 1)

        function = json.loads((inputs / "disk_lens.json").read_text())["function"]
        nan_doc = tmpdir / "nan.json"
        nan_doc.write_text(
            json.dumps({"schema": "bochner-bounds/1",
                        "function": dict(function, values=[[[float("nan"), 0.0]]] * 9),
                        "hypothesis": {"type": "unit_vector", "e": [[1, 0]],
                                       "k1": 0.5, "k2": 0.0}}),
            encoding="utf-8",
        )
        wrong_type = tmpdir / "wrong_type.json"
        wrong_type.write_text(
            json.dumps({"schema": "bochner-bounds/1", "function": function,
                        "hypothesis": {"type": "k_cond", "e": [[1, 0]], "K": [2]}}),
            encoding="utf-8",
        )
        for path, field in ((nan_doc, "values"), (wrong_type, "hypothesis.K")):
            for command in ("check", "certify"):
                r = run(command, "--input", str(path))
                good &= expect(
                    f"{path.name} {command} exits 1 naming {field}",
                    r.returncode == 1 and r.stderr.startswith("error: ") and field in r.stderr,
                    r.stderr.strip().splitlines()[-1] if r.stderr.strip() else "",
                )

        hyp = {"type": "unit_vector", "e": [[1, 0]], "k1": 0.6, "k2": 0.8}
        count_cases = []
        for count in (2.9, True, 1, 10**11):
            count_cases.append(({"node_count": count}, "witness", [], "node_count"))
            count_cases.append(({"generator": {"nodes": count}}, "bench", [], "generator.nodes"))
        count_cases.append(({}, "bench", ["--trials", str(10**11)], "trials"))
        for i, (fields, command, flags, field) in enumerate(count_cases):
            path = tmpdir / f"count_{i}.json"
            path.write_text(
                json.dumps({"schema": "bochner-bounds/1", "hypothesis": hyp, **fields}),
                encoding="utf-8",
            )
            r = run(command, "--input", str(path), *flags)
            good &= expect(
                f"{command} with {json.dumps(fields or flags)} exits 1 naming {field}",
                r.returncode == 1
                and r.stderr.startswith(f"error: {field}: ")
                and "Traceback" not in r.stderr,
                r.stderr.strip().splitlines()[-1] if r.stderr.strip() else "",
            )

        huge = 10**400  # a JSON integer too large for a float
        n = len(function["nodes"])
        number_cases = [
            ("a = 10**400", {"a": huge}, "function: a"),
            ("b = 10**400", {"b": huge}, "function: b"),
            ("a node 10**400", {"nodes": [huge] + function["nodes"][1:]}, "function: nodes"),
            ("a value 10**400", {"values": [[[huge, 0]]] * n}, "function: values"),
            ('a node "0"', {"nodes": ["0"] + function["nodes"][1:]}, "function: nodes"),
            ('a = "0"', {"a": "0"}, "function: a"),
            ("a value true", {"values": [[[True, 0]]] * n}, "function: values"),
            ("three-number pairs", {"values": [[[0.6, 0.8, 99]]] * n}, "function: values"),
            ("empty rows", {"values": [[]] * n}, "function: values"),
        ]
        for i, (label, change, field) in enumerate(number_cases):
            path = tmpdir / f"number_{i}.json"
            path.write_text(
                json.dumps({"schema": "bochner-bounds/1", "function": dict(function, **change),
                            "hypothesis": hyp}),
                encoding="utf-8",
            )
            for command in ("check", "integrate"):
                r = run(command, "--input", str(path))
                good &= expect(
                    f"{command} with {label} exits 1 naming {field}",
                    r.returncode == 1 and r.stderr.startswith(f"error: {field}: ")
                    and "Traceback" not in r.stderr,
                    r.stderr.strip().splitlines()[-1] if r.stderr.strip() else "",
                )
        for fields, command, field in (
            ({"hypothesis": dict(hyp, k1=huge)}, "check", "hypothesis.k1"),
            ({"hypothesis": dict(hyp, e=[[huge, 0]])}, "check", "hypothesis.e"),
            ({"hypothesis": hyp, "interval": {"a": huge, "b": 1}}, "witness", "interval.a"),
        ):
            path = tmpdir / f"overflow_{field}.json"
            path.write_text(
                json.dumps({"schema": "bochner-bounds/1", "function": function, **fields}),
                encoding="utf-8",
            )
            r = run(command, "--input", str(path))
            good &= expect(
                f"{command} with an overflowing {field} exits 1 naming it",
                r.returncode == 1 and f"{field}: " in r.stderr and "Traceback" not in r.stderr,
                r.stderr.strip().splitlines()[-1] if r.stderr.strip() else "",
            )

        # a 1e4-node, d = 4 witness, decoded and rendered again in process
        e4 = [[0.5, 0.0], [0.0, 0.5], [-0.5, 0.0], [0.0, -0.5]]
        request = tmpdir / "witness_d4.json"
        request.write_text(
            json.dumps({"schema": "bochner-bounds/1", "node_count": 10_000,
                        "hypothesis": {"type": "unit_vector", "e": e4, "k1": 0.6, "k2": 0.8}}),
            encoding="utf-8",
        )
        r = run("witness", "--input", str(request))
        doc = json.loads(r.stdout) if r.returncode == 0 else {}
        again = r.returncode == 0 and dumps({
            "schema": doc["schema"],
            "function": gridfunction_to_dict(gridfunction_from_dict(doc["function"])),
            "hypothesis": hypothesis_to_dict(hypothesis_from_dict(doc["hypothesis"])),
        })
        good &= expect("witness d=4 N=1e4 re-renders byte for byte in process",
                       again == r.stdout, f"{len(r.stdout)} bytes")

        for path in sorted(inputs.glob("*.json")):
            if "function" not in json.loads(path.read_text()):
                continue
            for flags in ([], ["--quad-refine", "1"]):
                r = run("integrate", "--input", str(path), *flags)
                doc = json.loads(r.stdout) if r.returncode == 0 else {}
                good &= expect(
                    f"integrate {path.name} {' '.join(flags) or 'default rule'}: "
                    "triangle slack >= 0",
                    r.returncode == 0 and doc["triangle_slack"] >= 0,
                    f"triangle_slack={doc.get('triangle_slack')!r}",
                )

        # values whose squares under- or overflow: the norms are scaled by powers
        # of two, under the model rule and under the rules on the nodes
        for (label, nodes, values), interp, flags in itertools.product(
            (("a 1.49e-160 ramp", [0, 0.5, 1], [[[0, 0]], [[0, 0]], [[0, 1.48978995e-160]]]),
             ("a constant 1e308", [0, 0.25, 0.5, 0.75, 1], [[[1e308, 0]]] * 5)),
            ("linear", "constleft"),
            ([], ["--quad-refine", "1"], ["--quad-kind", "trapezoid-on-nodes", "--quad-refine", "1"]),
        ):
            path = tmpdir / "extreme.json"
            path.write_text(
                json.dumps({"schema": "bochner-bounds/1", "hypothesis": hyp,
                            "function": {"a": 0, "b": 1, "nodes": nodes, "values": values,
                                         "interp": interp}}),
                encoding="utf-8",
            )
            r = run("integrate", "--input", str(path), *flags)
            doc = json.loads(r.stdout) if r.returncode == 0 else {}
            good &= expect(
                f"integrate {label}, {interp}, {' '.join(flags) or 'default rule'}: "
                "exit 0, triangle slack >= 0, no warning",
                r.returncode == 0 and doc["triangle_slack"] >= 0
                and "RuntimeWarning" not in r.stderr and "Traceback" not in r.stderr,
                f"triangle_slack={doc.get('triangle_slack')!r} {r.stderr.strip()[-200:]}",
            )

        # functions that break their class at a tiny scale, or only where they
        # are tiny next to their largest value: cone margins are relative to
        # the sup norm of f on each panel
        ray = [math.cos(0.7), math.sin(0.7)]
        tail = [[ray], [[-1e-10 * x for x in ray]], [[-1e-10 * x for x in ray]]]
        for label, hypothesis, nodes, values, interp in (
            ("1e-12 * (1, -1, 1) under k_cond, K = 1", {"type": "k_cond", "e": [[1, 0]], "K": 1},
             [0, 0.5, 1], [[[1e-12, 0]], [[-1e-12, 0]], [[1e-12, 0]]], "constleft"),
            ("the real ramp [0, 0, 1.49e-160] under unit_vector, k2 = 1",
             {"type": "unit_vector", "e": [[1, 0]], "k1": 0, "k2": 1},
             [0, 0.5, 1], [[[0, 0]], [[0, 0]], [[1.49e-160, 0]]], "linear"),
            ("e^{0.7i} then -1e-10 e^{0.7i} under cone(0.7, 0.7)",
             {"type": "cone", "phi1": 0.7, "phi2": 0.7}, [0, 1e-9, 1], tail, "constleft"),
            ("e^{0.7i} then -1e-10 e^{0.7i} under cone(0.1, 0.5)",
             {"type": "cone", "phi1": 0.1, "phi2": 0.5}, [0, 1e-9, 1], tail, "constleft"),
            ("1 then -1e-10 under k_cond, K = 1", {"type": "k_cond", "e": [[1, 0]], "K": 1},
             [0, 1e-9, 1], [[[1, 0]], [[-1e-10, 0]], [[-1e-10, 0]]], "constleft"),
            ("1e150 then -1e-150 under k_cond, K = 1", {"type": "k_cond", "e": [[1, 0]], "K": 1},
             [0, 0.5, 1], [[[1e150, 0]], [[-1e-150, 0]], [[-1e-150, 0]]], "linear"),
        ):
            path = tmpdir / "tiny.json"
            path.write_text(
                json.dumps({"schema": "bochner-bounds/1", "hypothesis": hypothesis,
                            "function": {"a": 0, "b": 1, "nodes": nodes,
                                         "values": values, "interp": interp}}),
                encoding="utf-8",
            )
            for command in ("check", "certify"):
                r = run(command, "--input", str(path))
                good &= expect(f"{command} {label} exits 2",
                               r.returncode == 2 and "Traceback" not in r.stderr,
                               f"exit {r.returncode} {r.stderr.strip()[-200:]}")

        for path in sorted(inputs.glob("*.json")):
            doc = json.loads(path.read_text())
            if "function" not in doc:
                continue
            r = run("check", "--input", str(path))
            got = json.loads(r.stdout)["checked_points"] if r.returncode in (0, 2) else None
            nodes = len(doc["function"]["nodes"])
            good &= expect(f"check {path.name} checks its {nodes} nodes", got == nodes,
                           f"checked_points={got!r}")

        disk = str(inputs / "disk_lens.json")
        for args, field in (
            (["check"], "--input"),
            (["certify", "--input", disk, "--quad-refine", "x"], "--quad-refine"),
            (["check", "--input", disk, "--quad-refine", "1"], "--quad-refine"),
            (["bench", "--input", str(inputs / "bench_cone.json"), "--tol", "1e-300"], "--tol"),
        ):
            r = run(*args)
            good &= expect(
                f"{' '.join(args[:1] + args[3:])} exits 1 naming {field}",
                r.returncode == 1 and r.stderr.startswith("error: ") and field in r.stderr,
                r.stderr.strip().splitlines()[-1] if r.stderr.strip() else "",
            )

    good &= expect("no traceback on stderr", not TRACEBACKS, ", ".join(TRACEBACKS))
    print("round trip:", "all checks passed" if good else "FAILURES above")
    return 0 if good else 1


if __name__ == "__main__":
    raise SystemExit(main())
