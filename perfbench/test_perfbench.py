"""Tests of the benchmark itself: seeded inputs, exact counts, output contract.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bench
import calibrate
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
FILE_WORKLOADS = ("certify-refined", "document-io")


def test_workload_names_agree():
    declared = [w["name"] for w in SPEC["workloads"]]
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS) == declared


def _files(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("workload", FILE_WORKLOADS)
def test_inputs_repeat_for_a_seed_and_keep_their_size(workload, tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = workloads.WORKLOADS[workload](3, dirs[0])
    again = workloads.WORKLOADS[workload](3, dirs[1])
    other = workloads.WORKLOADS[workload](4, dirs[2])
    assert _files(dirs[0]) == _files(dirs[1])
    assert [op.nodes for op in first] == [op.nodes for op in again] == [op.nodes for op in other]
    assert _files(dirs[0]) != _files(dirs[2])


def _family_table(seed, work):
    return workloads.family_bench_ops(seed, work, 20)


CYCLES = {**workloads.WORKLOADS, "family-table": _family_table}


def _one_traced_cycle(name, work):
    ops = CYCLES[name](5, work)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        tally = bench.measure(ops, 0.0, tracer)
    assert tally.failed == 0, tally.problems
    assert tally.attempted == len(ops) == tracer.ops
    summary = tracer.summary()
    return {name: summary[name][0] for name in tracing.COUNTS}


@pytest.mark.parametrize("name", sorted(CYCLES))
def test_counts_repeat_exactly(name, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = _one_traced_cycle(name, tmp_path / "a")
    assert first == _one_traced_cycle(name, tmp_path / "b")
    assert first["gridfn.nodes"] > 0 and first["hypotheses.checked_points"] > 0


def test_instrument_restores_the_package():
    import bochner_bounds as bb
    from bochner_bounds import bounds, cli, gridfn

    before = (bb.certify, bounds.check, cli.json, gridfn.GridFunction.__post_init__)
    with tracing.instrument(tracing.Tracer()):
        assert bounds.check is not before[1]
    assert (bb.certify, bounds.check, cli.json, gridfn.GridFunction.__post_init__) == before


def test_quad_points_follow_the_documented_rules():
    import bochner_bounds as bb

    f = bb.GridFunction(bb.Interval(0.0, 1.0), np.linspace(0.0, 1.0, 11), np.ones(11))
    jittered = bb.GridFunction(bb.Interval(0.0, 1.0), [0.0, 0.3, 1.0], np.ones(3))
    assert tracing.quad_points(f, bb.DEFAULT_RULE) == 10 * 8 + 1
    assert tracing.quad_points(f, bb.QuadratureRule(refinement=1)) == 11
    assert tracing.quad_points(f, bb.QuadratureRule(refinement=3)) == 10 * 4 + 1
    assert tracing.quad_points(jittered, bb.QuadratureRule(refinement=1)) == 2 * 2 + 1
    assert tracing.quad_points(f, bb.QuadratureRule("trapezoid-on-nodes", 3)) == 10 * 3 + 1


def test_calibration_scales_by_the_neighbouring_kernel_times():
    ref = calibrate.REFERENCE_S
    assert calibrate.calibrated([0.5, 0.2], [ref, ref, ref]) == pytest.approx([0.5, 0.2])
    # a host at half speed doubles both the op and the kernel times
    assert calibrate.calibrated([1.0, 0.4], [2 * ref, 2 * ref, 2 * ref]) == pytest.approx([0.5, 0.2])
    assert calibrate.calibrated([1.0], [ref, 3 * ref]) == pytest.approx([0.5])
    # the median of the four nearest kernel times rides out one outlier
    kernels = [ref, ref, 9 * ref, ref, ref]
    assert calibrate.calibrated([0.1] * 4, kernels) == pytest.approx([0.1] * 4)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_declared_metric(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "document-io", "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
