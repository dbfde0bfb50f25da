#!/usr/bin/env python3
"""Tightness benchmark across all shipped generator/hypothesis pairs.

Runs seeded trials per family, prints an aligned table of ratio statistics,
and exits nonzero if any family records a soundness violation.
"""

from __future__ import annotations

import argparse
import math
import pathlib
import sys
from dataclasses import asdict

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from bochner_bounds.hilbert import OrthonormalFamily
from bochner_bounds.hypotheses import (
    Cone,
    Disk,
    Karamata,
    KCond,
    MBounds,
    Orthonormal,
    OrthoDisk,
    OrthoMBounds,
    UnitVector,
    tag_of,
)
from bochner_bounds.jsonio import dumps_csv
from bochner_bounds.witness import FamilySpec, tightness

E1 = np.array([1.0 + 0j])
E2 = np.eye(2, dtype=complex)
FAM2 = OrthonormalFamily(E2)


def shipped_families(seed: int) -> list[FamilySpec]:
    return [
        FamilySpec(UnitVector(E1, 0.3, 0.4), seed=seed),
        FamilySpec(KCond(E1, 2.0), seed=seed),
        FamilySpec(Karamata(0.6), seed=seed),
        FamilySpec(Cone(math.pi / 6, math.pi / 3), seed=seed),
        FamilySpec(Disk(E1, 0.9, 0.9), seed=seed),
        FamilySpec(Disk(E2[0], 0.9, 0.85), seed=seed),
        FamilySpec(MBounds(E1, 0.2, 3.0, 0.2, 3.0), seed=seed),
        FamilySpec(Orthonormal(FAM2, ks=(0.3, 0.3), hs=(0.2, 0.2)), seed=seed),
        FamilySpec(OrthoDisk(FAM2, rhos=(0.95, 0.95), etas=(0.95, 0.95)), seed=seed),
        FamilySpec(
            OrthoMBounds(FAM2, ms=(0.05, 0.05), Ms=(4.0, 4.0), ns=(0.05, 0.05), Ns=(4.0, 4.0)),
            seed=seed,
        ),
    ]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--csv", default=None, help="optional path for CSV lines per family")
    args = ap.parse_args()

    rows = [("family", "trials", "mean", "min", "max", "violations")]
    csv_lines = []
    bad = 0
    for spec in shipped_families(args.seed):
        label = tag_of(spec.hypothesis)
        if spec.hypothesis.__class__ is Disk:
            label += f"_d{spec.hypothesis.e.size}"
        stats = tightness(args.trials, spec, spec.hypothesis)
        bad += stats.violations
        rows.append(
            (
                label,
                str(stats.trials),
                f"{stats.mean_ratio:.6f}",
                f"{stats.min_ratio:.6f}",
                f"{stats.max_ratio:.6f}",
                str(stats.violations),
            )
        )
        csv_lines.append(label + "," + dumps_csv(asdict(stats)).splitlines()[1])

    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    if args.csv:
        header = "family,trials,mean_ratio,min_ratio,max_ratio,violations\n"
        pathlib.Path(args.csv).write_text(header + "\n".join(csv_lines) + "\n", encoding="utf-8")
        print(f"wrote {args.csv}")
    print(f"total violations: {bad}")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
