#!/usr/bin/env python3
"""Cost of one ``cli.main`` command, run in process: wall, user and system time, minor faults.

    python3 scripts/op_cost.py [--runs N] certify --input inputs/cone_pi6_pi3.json

Runs the command once to warm up, then ``N`` times (default 20), each
between two ``resource.getrusage`` readings, and prints the median per op of
each quantity, with the mean in parentheses.  System time and minor faults
show what the op costs the kernel, such as pages that the heap hands back
and faults in again; the benchmark in ``perfbench/`` times wall clock only.
The kernel may split CPU time between user and system at clock-tick
granularity, so for an op of a few milliseconds the mean of the system time
is the steadier figure (a median of 0.1 ms beside a mean of 2 ms is that
split, not a fast op).
User time counts every thread of the process, the bulk reader's worker
thread included, so on a large read user + system time can exceed wall time.
The command's output goes to the null device unless it names an
``--output`` file.  Exits 1 if a run exits 1.  It imports nothing outside
the standard library but the package, from ``src/`` next to this script.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import pathlib
import resource
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from bochner_bounds.cli import main as cli_main  # noqa: E402

FIELDS = (("wall_ms", 1e3), ("user_ms", 1e3), ("sys_ms", 1e3), ("minflt", 1))


def run_once(argv: list[str]) -> tuple[int, tuple[float, float, float, int]]:
    """Exit status of ``cli.main(argv)`` and its wall, user and system seconds and minor faults."""
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    status = cli_main(argv)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    return status, (wall, after.ru_utime - before.ru_utime, after.ru_stime - before.ru_stime,
                    after.ru_minflt - before.ru_minflt)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=20, help="measured runs after one warm-up")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="a bochner-bounds command line")
    args = parser.parse_args(argv)
    if args.runs < 1 or not args.command:
        parser.error("needs --runs >= 1 and a command")
    samples = []
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        for _ in range(args.runs + 1):
            status, sample = run_once(args.command)
            if status == 1:
                print(f"op_cost: the command exited 1: {args.command}", file=sys.stderr)
                return 1
            samples.append(sample)
    columns = list(zip(*samples[1:]))
    print(f"runs {args.runs}, exit status {status}: {' '.join(args.command)}")
    for (name, scale), column in zip(FIELDS, columns):
        print(f"{name:8} {statistics.median(column) * scale:10.3f} "
              f"(mean {statistics.fmean(column) * scale:.3f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
