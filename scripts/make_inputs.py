#!/usr/bin/env python3
"""Regenerate the bundled CLI example inputs.

    python scripts/make_inputs.py [OUT_DIR]

writes them to OUT_DIR (default: the repository's inputs/), byte for byte
as they are checked in.
"""

from __future__ import annotations

import argparse
import cmath
import math
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from bochner_bounds.gridfn import GridFunction, Interval, gridfunction_to_dict, sample
from bochner_bounds.hypotheses import Cone, Disk, UnitVector, hypothesis_to_dict
from bochner_bounds.jsonio import dumps

SCHEMA = "bochner-bounds/1"
INPUTS = pathlib.Path(__file__).resolve().parents[1] / "inputs"


def constant(value, n=9, a=0.0, b=1.0) -> GridFunction:
    vals = np.tile(np.atleast_1d(np.asarray(value, dtype=complex)), (n, 1))
    return GridFunction(Interval(a, b), np.linspace(a, b, n), vals)


def write(out: pathlib.Path, name: str, doc: dict) -> None:
    path = out / name
    path.write_text(dumps(doc), encoding="utf-8")
    print(f"wrote {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", type=pathlib.Path, default=INPUTS,
                        help="output directory (default: inputs/)")
    out = parser.parse_args(argv).out
    out.mkdir(exist_ok=True)
    e = np.array([1.0 + 0j])

    arc = sample(lambda t: cmath.exp(1j * t), Interval(math.pi / 6, math.pi / 3), 257)
    write(
        out,
        "cone_pi6_pi3.json",
        {
            "schema": SCHEMA,
            "function": gridfunction_to_dict(arc),
            "hypothesis": hypothesis_to_dict(Cone(math.pi / 6, math.pi / 3)),
        },
    )

    write(
        out,
        "disk_lens.json",
        {
            "schema": SCHEMA,
            "function": gridfunction_to_dict(constant([(1 + 1j) / 2])),
            "hypothesis": hypothesis_to_dict(Disk(e, 0.9, 0.9)),
        },
    )

    write(
        out,
        "witness_unit_vector.json",
        {
            "schema": SCHEMA,
            "hypothesis": hypothesis_to_dict(UnitVector(e, 0.6, 0.8)),
            "interval": {"a": 0.0, "b": 1.0},
            "node_count": 33,
        },
    )

    write(
        out,
        "failing_unit_vector.json",
        {
            "schema": SCHEMA,
            "function": gridfunction_to_dict(constant(-e)),
            "hypothesis": hypothesis_to_dict(UnitVector(e, 0.5, 0.0)),
        },
    )

    write(
        out,
        "bench_cone.json",
        {
            "schema": SCHEMA,
            "hypothesis": hypothesis_to_dict(Cone(math.pi / 6, math.pi / 3)),
            "generator": {"nodes": 17, "rmin": 0.5, "rmax": 1.5},
        },
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
