#!/usr/bin/env python3
"""bochner-bounds benchmark entry point.

Run from the root of a source checkout (the package is imported from
``src/``, nothing needs installing):

    python3 perfbench/run.py --workload certify-refined --seed 1 --seconds 40 --trace 0

Prints information lines, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exits 2 without a result when the checkout has no ``src/bochner_bounds``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify-refined", "document-io")


def single_blas_thread() -> None:
    """Pin BLAS/OpenMP to one thread; must run before numpy is imported.

    The ops are single-client and the library's BLAS calls are small, so a
    second thread only spins: it doubles the CPU used and adds noise on a
    shared machine without making an op faster.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="op time to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    src = ROOT / "src"
    if not (src / "bochner_bounds" / "__init__.py").is_file():
        print(f"error: no package at {src / 'bochner_bounds'}; run from a source checkout",
              file=sys.stderr)
        return 2
    single_blas_thread()
    sys.path[:0] = [str(src), str(HERE)]
    import bench

    return bench.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
