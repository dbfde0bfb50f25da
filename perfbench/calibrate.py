"""A fixed reference kernel that calibrates op times for the host's speed.

The benchmark runs on the virtual CPUs of a shared host. Their speed drifts
by up to 2x over minutes, and a whole 40-second run can fall in a slow
stretch, so a median over the run does not remove the drift. The benchmark
therefore times this kernel before the first op and right after each op.
An op's *calibrated* time is its wall time x ``REFERENCE_S`` / the median of
the four kernel times nearest the op, two before it and two after it. One
kernel time alone is too noisy; four still follow the drift, which moves over
seconds. When the kernel takes ``REFERENCE_S``, calibrated and wall time
agree.

The kernel mixes three kinds of work the package does: a Python loop over
numpy scalars, many calls on small numpy arrays (as a per-panel quadrature
loop makes) and ``json.dumps``. Of the mixes tried, this one tracked the op
times of both workloads best. Its inputs are fixed, and it calls nothing in
the package, so a change to the package cannot move it.
"""

from __future__ import annotations

import json
from statistics import median
from time import perf_counter

import numpy as np

# about the kernel's median wall time on the 2-vCPU x86-64 VM of the baselines
REFERENCE_S = 0.037

_rng = np.random.Generator(np.random.PCG64(0))
_WEIGHTS = _rng.random(100)
_PAIRS = _rng.random((1_000, 2)).tolist()


def kernel_s() -> float:
    """Wall time of one pass of the reference kernel, in s."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(30_000):
        acc += _WEIGHTS[i % 100] * i
    for i in range(1_500):
        x = np.linspace(i, i + 1.0, 9)
        acc += (x * x).sum()
    acc += len(json.dumps(_PAIRS))
    return perf_counter() - t0


def calibrated(walls: list, kernels: list) -> list:
    """Calibrated times of ops timed between ``kernels[k]`` and ``kernels[k + 1]``."""
    return [REFERENCE_S * w / median(kernels[max(k - 1, 0):k + 3]) for k, w in enumerate(walls)]
