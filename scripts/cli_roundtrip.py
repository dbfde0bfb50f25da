#!/usr/bin/env python3
"""End-to-end CLI contract over the bundled inputs, each command a fresh process.

Checks the exit codes (0 verified, 2 falsified, 1 malformed), the closed-form
cone arc and its byte-stable report, the witness -> certify round trip, the
falsified check's worst margin and a bench with no violations.  Any
traceback on stderr counts as a failure.  The finer contract (named fields,
scale safety, refused flags) is tested in process under ``tests/``.  Prints
one line per check and exits nonzero if any check failed.  The package must
be importable: installed, or ``PYTHONPATH=src``.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import tempfile

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

    good &= expect("no traceback on stderr", not TRACEBACKS, ", ".join(TRACEBACKS))
    print("round trip:", "all checks passed" if good else "FAILURES above")
    return 0 if good else 1


if __name__ == "__main__":
    raise SystemExit(main())
