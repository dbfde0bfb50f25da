"""Measurement loop, set-up timing, information tables and the result line.

End-to-end metrics come from an untraced run, in calibrated time (see
:mod:`calibrate`); ``--trace 1`` gives per-layer metrics instead, in wall
time (see :mod:`tracing`).  Every op is closed-loop: one client in
one process, the next op after the previous one returns.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import bochner_bounds as bb
import calibrate
import tracing
import workloads
from bochner_bounds import cli

SETUP_RUNS = 9  # fresh-interpreter CLI runs per benchmark run; the median is reported
SETUP_INPUT = "inputs/cone_pi6_pi3.json"
FAMILY_TABLE_TRIALS = 100
# per-layer metrics of the witness bench path, taken from the family table
FAMILY_LAYER_METRICS = ("witness.generate_ms", "witness.tightness_ms", "witness.trials", "witness.self_ms")
SCALING_SIZES = (100, 1_000, 10_000, 100_000)
MAX_PROBLEMS_SHOWN = 5


@dataclass
class Tally:
    """Ops attempted and failed, and op times in run order, of one measured loop.

    When the loop is calibrated, ``kernels`` holds the reference kernel's
    time before the first op and after each op.
    """

    attempted: int = 0
    failed: int = 0
    latencies: list = field(default_factory=list)
    kernels: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def fail(self, label: str, message: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS_SHOWN:
            self.problems.append(f"{label}: {message}")


def run_op(op: workloads.Op, tally: Tally, digests: dict | None = None, key=None, tracer=None):
    """Time one op, then gate its output; returns the op's wall time in s."""
    error = None
    with tracer.op() if tracer is not None else nullcontext():
        t0 = perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a failing op is counted, not fatal
            error = exc
        dt = perf_counter() - t0
    tally.attempted += 1
    tally.latencies.append(dt)
    if error is not None:
        tally.fail(op.label, f"{type(error).__name__}: {error}")
        return dt
    try:
        digest = op.verify(result)
    except Exception as exc:
        tally.fail(op.label, f"{type(exc).__name__}: {exc}")
        return dt
    if digests is not None and digests.setdefault(key, digest) != digest:
        tally.fail(op.label, "output differs from the first run of the same input")
    return dt


def measure(ops: list, seconds: float, tracer=None, calibrated=False) -> Tally:
    """Repeat whole cycles of ``ops`` until ``seconds`` of op time is measured.

    ``calibrated`` times the reference kernel before the first op and after
    each op, outside the op times.
    """
    tally = Tally()
    digests: dict = {}
    if calibrated:
        tally.kernels.append(calibrate.kernel_s())
    while True:
        for i, op in enumerate(ops):
            run_op(op, tally, digests, i, tracer)
            if calibrated:
                tally.kernels.append(calibrate.kernel_s())
        if tally.busy >= seconds:
            return tally


def op_medians(times: list, ops: list) -> list:
    """Each op's median time over its repeats in ``times``, in run order.

    The medians ride out bursts of interference on a shared machine.
    """
    n = len(ops)
    return [statistics.median(times[i::n]) for i in range(n)]


def cycle_rate(times: list, ops: list, amount: float) -> float:
    """``amount`` per cycle, over the sum of the op medians."""
    return amount / sum(op_medians(times, ops))


def end_to_end(tally: Tally, ops: list, setup_s: float) -> dict:
    """The end-to-end metrics, from calibrated op times."""
    times = calibrate.calibrated(tally.latencies, tally.kernels)
    return {
        "ops_per_s_cal": (cycle_rate(times, ops, len(ops)), "1/s"),
        "nodes_per_s_cal": (cycle_rate(times, ops, sum(op.nodes for op in ops)), "1/s"),
        "op_p50_ms_cal": (statistics.median(op_medians(times, ops)) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


def wall_clock_line(tally: Tally, ops: list) -> str:
    """The uncalibrated rate and median, and the kernel's median, as information."""
    p50 = statistics.median(op_medians(tally.latencies, ops)) * 1e3
    return (f"wall clock: ops_per_s {cycle_rate(tally.latencies, ops, len(ops)):.6g}  "
            f"op_p50_ms {p50:.6g}  reference kernel median "
            f"{statistics.median(tally.kernels) * 1e3:.4g} ms (calibrated at "
            f"{calibrate.REFERENCE_S * 1e3:.4g} ms)")


# ------------------------------------------------------------ set-up time


def setup_time(root: Path, expected: bytes, tally: Tally) -> float:
    """Median calibrated time of a fresh interpreter running one small CLI certify.

    This is what every CLI user pays: interpreter start, numpy and package
    import, argument parsing, one small command.  This process has already
    imported the package, so its bytecode is compiled and cached.  The
    reference kernel runs before the first and after each CLI run.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "bochner_bounds.cli", "certify", "--input", SETUP_INPUT]
    walls, kernels = [], [calibrate.kernel_s()]
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, timeout=60)
        walls.append(perf_counter() - t0)
        kernels.append(calibrate.kernel_s())
        tally.attempted += 1
        if proc.returncode != 0 or proc.stdout != expected:
            tally.fail("setup", f"CLI exit {proc.returncode}, report differs from in-process run")
    print(f"set-up: wall clock median {statistics.median(walls):.4g} s over {SETUP_RUNS} runs")
    return statistics.median(calibrate.calibrated(walls, kernels))


# ------------------------------------------------------------ information


def bundled_reports(root: Path, work: Path) -> dict:
    """CLI report of each bundled input: path -> (command, exit, report bytes).

    Information only: ROADMAP's byte-identical-reports rule is read off
    their digests across commits.
    """
    reports = {}
    for path in sorted((root / "inputs").glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        command = "certify" if "function" in doc else "bench" if "generator" in doc else "witness"
        out = work / f"bundled_{path.stem}.out"
        status = cli.main([command, "--input", str(path), "--output", str(out)])
        raw = out.read_bytes() if out.exists() else b""
        reports[path.relative_to(root).as_posix()] = (command, status, raw)
    return reports


def family_table(seed: int, work: Path) -> tuple[dict, dict, list]:
    """One ``cli.run bench`` of each shipped family, untraced then traced.

    Returns trials/s per family from the untraced pass, the traced pass's
    per-layer summary (one op = one family bench) and both tallies.
    """
    ops = workloads.family_bench_ops(seed, work, FAMILY_TABLE_TRIALS)
    plain = measure(ops, 0.0)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        traced = measure(ops, 0.0, tracer)
    rates = {op.label: FAMILY_TABLE_TRIALS / dt for op, dt in zip(ops, plain.latencies)}
    return rates, tracer.summary(), [plain, traced]


def scaling_table(seed: int, tally: Tally) -> list:
    """certify wall time against N, default rule and on-node Simpson, d = 4."""
    rows = []
    rules = (("default", bb.DEFAULT_RULE), ("on-node", workloads.ON_NODE))
    for n in SCALING_SIZES:
        rng = workloads.rng_for(seed, 100 + n)
        t = workloads.make_nodes(rng, n, jitter=False)
        values, hyp_doc = workloads.orthonormal_case(rng, t, smooth=True)
        h = bb.hypothesis_from_dict(hyp_doc)
        f = bb.GridFunction(bb.Interval(*workloads.INTERVAL), t, values)
        row = [n]
        for name, rule in rules:
            t0 = perf_counter()
            report = bb.certify(f, h, rule)
            row.append((perf_counter() - t0) * 1e3)
            tally.attempted += 1
            if not (report.hypothesis_verified and report.lower_bound <= report.true_norm):
                tally.fail(f"scaling N={n} {name}", "certify failed its gate")
        rows.append(row)
    return rows


def _table(header, rows) -> str:
    cells = [header] + [[str(c) for c in r] for r in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    return "\n".join("  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in cells)


# ------------------------------------------------------------------ main


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> int:
    work_root = root / ".perfbench_work"
    work = work_root / f"{workload}-seed{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(root, work_root, work, workload, seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(root, work_root, work, workload, seed, seconds, trace) -> int:
    print(f"workload {workload}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    threads = {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    print(f"threads {threads}  nproc {len(os.sched_getaffinity(0))}  numpy {np.__version__}")
    reports = bundled_reports(root, work)
    for path, (command, status, raw) in reports.items():
        print(f"bundled {path}  {command}  exit {status}  sha256 {hashlib.sha256(raw).hexdigest()}")

    t0 = perf_counter()
    ops = workloads.WORKLOADS[workload](seed, work)
    print(f"inputs made in {perf_counter() - t0:.2f} s; cycle of {len(ops)} ops, "
          f"{sum(op.nodes for op in ops)} nodes: " + ", ".join(op.label for op in ops))
    run_op(ops[0], Tally())  # warm-up; a failure shows again in the measured loop

    if trace:
        metrics, tallies = _traced(root, work_root, work, workload, seed, seconds, ops)
    else:
        setup = Tally()
        setup_s = setup_time(root, reports[SETUP_INPUT][2], setup)
        loop = measure(ops, seconds, calibrated=True)
        metrics = end_to_end(loop, ops, setup_s)
        tallies = [loop, setup]
        print(wall_clock_line(loop, ops))

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    for t in tallies:
        for problem in t.problems:
            print(f"FAILED {problem}")
    main_loop = tallies[0]
    print(f"measured {main_loop.attempted} ops in {main_loop.busy:.2f} s of op time; "
          f"ops_failed_ratio {failed / max(attempted, 1):.6g} ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _traced(root, work_root, work, workload, seed, seconds, ops) -> tuple[dict, list]:
    """Half the time untraced, half traced; then the information tables."""
    plain = measure(ops, seconds / 2, calibrated=True)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        traced = measure(ops, seconds / 2, tracer, calibrated=True)
    metrics = tracer.summary()
    plain_rate, traced_rate = (
        cycle_rate(calibrate.calibrated(t.latencies, t.kernels), ops, len(ops)) for t in (plain, traced)
    )
    metrics["trace.ops_per_s_cal"] = (traced_rate, "1/s")
    metrics["trace.overhead_pct"] = (100.0 * (plain_rate / traced_rate - 1.0), "%")
    _print_attribution(metrics)

    rates, bench_layers, tallies = family_table(seed, work)
    for name in FAMILY_LAYER_METRICS:
        metrics[name] = bench_layers[name]
    for label, rate in rates.items():
        metrics[f"witness.tightness.{label}.trials_per_s"] = (rate, "1/s")
    print(f"per-family bench throughput ({FAMILY_TABLE_TRIALS} trials, 17 nodes, default rule)")
    print(_table(["family", "trials/s"], [[k, f"{v:.1f}"] for k, v in rates.items()]))
    scaling = Tally()
    print("certify wall time in ms against N (d = 4, in-process, one call each)")
    print(_table(["N", "default", "on-node"],
                 [[n, f"{a:.1f}", f"{b:.1f}"] for n, a, b in scaling_table(seed, scaling)]))

    trace_path = work_root / f"trace-{workload}-seed{seed}.jsonl"
    tracer.write(trace_path)
    print(f"spans written to {trace_path.relative_to(root)} ({len(tracer.spans)} spans)")
    return metrics, [traced, plain, *tallies, scaling]


def _print_attribution(metrics: dict) -> None:
    op = metrics["trace.op_ms"][0] or 1.0
    shares = {
        "gridfn.integrate_*": metrics["gridfn.integrate_vector_ms"][0] + metrics["gridfn.integrate_norm_ms"][0],
        "hypotheses.check": metrics["hypotheses.check_ms"][0],
        "cli.json_load + gridfn.gridfunction_from_dict": metrics["cli.json_load_ms"][0]
        + metrics["gridfn.gridfunction_from_dict_ms"][0],
        "jsonio.dumps + gridfn.gridfunction_to_dict": metrics["jsonio.dumps_ms"][0]
        + metrics["gridfn.gridfunction_to_dict_ms"][0],
    }
    print(f"traced op {op:.3f} ms; share of op time:")
    for name, ms in shares.items():
        print(f"  {name:48s} {100.0 * ms / op:5.1f} %")
