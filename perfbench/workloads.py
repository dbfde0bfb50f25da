"""Seeded inputs and timed operations of the benchmark workloads.

Every input is made here from ``numpy``'s PCG64 generator and the ``--seed``
argument, never from the library's own generators, so a library change
cannot change what is measured.  The seed changes the sampled values, node
jitter and orthonormal families; the sizes are fixed per workload, so runs
with different seeds do the same amount of work.

A workload is a *cycle*: a fixed list of operations that the runner repeats
as whole cycles.  Each :class:`Op` has a timed ``call`` and an untimed
``verify`` that raises :class:`VerifyError` when a correctness gate fails
and otherwise returns a digest of the output; the same op must give the
same digest every time it repeats within a run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import bochner_bounds as bb
from bochner_bounds import cli

SCHEMA = "bochner-bounds/1"
INTERVAL = (0.0, 1.0)
ON_NODE = bb.QuadratureRule("composite-simpson", refinement=1)

# relative tolerances of the benchmark's own reference integrals
EXACT_RTOL = 1e-9  # trapezoid on nodes is the exact vector integral of a linear model
SMOOTH_RTOL = 1e-6  # trapezoid vs on-node Simpson on the smooth samples made here
WITNESS_GAP = 1e-12

FAMILY_SEED_STRIDE = 1000


@dataclass(frozen=True)
class Op:
    """One timed call and its correctness gate; ``nodes`` it processes."""

    label: str
    nodes: int
    call: Callable[[], object]
    verify: Callable[[object], bytes]


class VerifyError(Exception):
    """A correctness gate failed; the message says which."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise VerifyError(message)


# ---------------------------------------------------------------- inputs


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """Independent PCG64 stream per (seed, input) pair."""
    return np.random.Generator(np.random.PCG64([seed, stream]))


def make_nodes(rng: np.random.Generator, n: int, jitter: bool) -> np.ndarray:
    t = np.linspace(INTERVAL[0], INTERVAL[1], n)
    if jitter:
        h = (INTERVAL[1] - INTERVAL[0]) / (n - 1)
        t[1:-1] += rng.uniform(-0.3, 0.3, n - 2) * h
    return t


def unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q


def _pairs(vec) -> list:
    return [[float(z.real), float(z.imag)] for z in vec]


def _wiggle(rng: np.random.Generator, t: np.ndarray, count: int, smooth: bool) -> np.ndarray:
    """``count`` columns in [-1, 1]: low-frequency sines, or i.i.d. uniform."""
    if smooth:
        freq = rng.integers(1, 4, count)
        phase = rng.uniform(0.0, 2.0 * math.pi, count)
        return np.sin(2.0 * math.pi * freq[None, :] * t[:, None] + phase[None, :])
    return rng.uniform(-1.0, 1.0, (t.size, count))


def cone_case(rng, t):
    """d = 1 samples r exp(i phi) strictly inside the cone [pi/6, pi/3]."""
    phi1, phi2 = math.pi / 6, math.pi / 3
    r = rng.uniform(0.5, 1.5, t.size)
    phi = rng.uniform(phi1 + 0.02, phi2 - 0.02, t.size)
    values = (r * np.exp(1j * phi))[:, None]
    return values, {"type": "cone", "phi1": phi1, "phi2": phi2}


def disk_case(rng, t, d=2):
    """Samples within 0.15 of (e + ie)/2, which lies 0.71 from both e and ie."""
    e = unitary(rng, d)[:, 0]
    g = rng.normal(size=(t.size, d)) + 1j * rng.normal(size=(t.size, d))
    g /= np.linalg.norm(g, axis=1)[:, None]
    radii = 0.15 * rng.uniform(0.0, 1.0, t.size) ** (1.0 / (2 * d))
    values = 0.5 * (1 + 1j) * e + radii[:, None] * g
    return values, {"type": "disk", "e": _pairs(e), "eta1": 0.9, "eta2": 0.9}


def orthonormal_case(rng, t, smooth, d=4):
    """Samples satisfying Orthonormal(ks = hs = 0.3) for two vectors in C^d.

    The unit direction has coefficients a_j + i b_j with a_j, b_j in
    [0.35, 0.45] and a residual of norm <= 0.4 orthogonal to the family, so
    its norm is <= 1 and Re, Im <f, e_j> >= 0.35 ||f|| / ||dir|| >= 0.3 ||f||.
    """
    q = unitary(rng, d)
    family, rest = q[:, :2].T, q[:, 2:].T
    w = _wiggle(rng, t, 8, smooth)
    coeffs = (0.4 + 0.05 * w[:, 0:2]) + 1j * (0.4 + 0.05 * w[:, 2:4])
    angle = math.pi * w[:, 4]
    resid = 0.2 * (1.0 + w[:, 5])[:, None] * (
        np.cos(angle)[:, None] * rest[0] + np.sin(angle)[:, None] * np.exp(1j * w[:, 6])[:, None] * rest[1]
    )
    r = 1.0 + 0.5 * w[:, 7]
    values = r[:, None] * (coeffs @ family + resid)
    hyp = {"type": "orthonormal", "vectors": [_pairs(v) for v in family], "ks": [0.3, 0.3], "hs": [0.3, 0.3]}
    return values, hyp


def function_doc(t: np.ndarray, values: np.ndarray, hyp: dict) -> dict:
    return {
        "schema": SCHEMA,
        "function": {
            "a": INTERVAL[0],
            "b": INTERVAL[1],
            "nodes": [float(x) for x in t],
            "values": [_pairs(row) for row in values],
            "interp": "linear",
        },
        "hypothesis": hyp,
    }


def write_doc(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# ------------------------------------------------- reference integrals


def trapezoid_vector(t: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Exact vector integral of the piecewise-linear interpolant."""
    h = np.diff(t)
    return (h[:, None] * 0.5 * (values[:-1] + values[1:])).sum(axis=0)


def norm_integral_bracket(t: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Panel-midpoint and trapezoid sums of ||f||, which bracket its integral.

    ||f|| is convex along each linear panel, so any composite Simpson or
    exact value for the piecewise-linear model lies between the two.
    """
    h = np.diff(t)
    mid = np.linalg.norm(0.5 * (values[:-1] + values[1:]), axis=1)
    ends = np.linalg.norm(values, axis=1)
    return float(h @ mid), float(h @ (0.5 * (ends[:-1] + ends[1:])))


def _close(x: float, ref: float, rtol: float) -> bool:
    return abs(x - ref) <= rtol * max(1.0, abs(ref))


# ------------------------------------------------------------ op helpers


def _cli_op(label, nodes, argv, out: Path, check_doc) -> Op:
    """``cli.main(argv)`` writing ``out``; gated on exit 0 and ``check_doc``."""

    def call():
        return cli.main(argv)

    def verify(status):
        _require(status == 0, f"exit code {status}, expected 0")
        raw = out.read_bytes()
        check_doc(json.loads(raw))
        return raw

    return Op(label, nodes, call, verify)


def _check_bound_doc(t, values, exact: bool):
    """Gate on a bound report for a function the benchmark generated."""
    ref_vec = np.linalg.norm(trapezoid_vector(t, values))
    lo, hi = norm_integral_bracket(t, values)

    def check_doc(doc):
        _require(doc.get("kind") == "bound_report", "not a bound report")
        _require(doc["hypothesis_verified"] is True, "hypothesis not verified")
        _require(doc["lower_bound"] <= doc["true_norm"], "lower_bound > true_norm")
        rtol = EXACT_RTOL if exact else SMOOTH_RTOL
        _require(_close(doc["true_norm"], ref_vec, rtol), "true_norm off the reference integral")
        if exact and doc["coefficient"] > 0:
            nrm = doc["lower_bound"] / doc["coefficient"]
            slack = EXACT_RTOL * max(1.0, hi)
            _require(lo - slack <= nrm <= hi + slack, "norm integral outside its bracket")

    return check_doc


# ------------------------------------------------------------- workloads


def certify_refined(seed: int, work: Path) -> list[Op]:
    """``cli.main certify`` with the default rule on d = 1, 2, 4 documents."""
    cases = (
        (1, 20000, cone_case),
        (2, 10000, disk_case),
        (4, 5000, lambda rng, t: orthonormal_case(rng, t, smooth=False)),
    )
    ops = []
    stream = 0
    for d, n, make in cases:
        for jitter in (False, True):
            stream += 1
            rng = rng_for(seed, stream)
            t = make_nodes(rng, n, jitter)
            values, hyp = make(rng, t)
            path = write_doc(work / f"certify_{stream}.json", function_doc(t, values, hyp))
            out = work / f"certify_{stream}.out.json"
            layout = "jittered" if jitter else "uniform"
            ops.append(
                _cli_op(
                    f"certify d={d} N={n} {layout}",
                    n,
                    ["certify", "--input", str(path), "--output", str(out)],
                    out,
                    _check_bound_doc(t, values, exact=True),
                )
            )
    return ops


def _family_hypotheses() -> list[tuple[str, dict]]:
    """The ten shipped generator families, in the wire format."""
    e1 = [[1.0, 0.0]]
    fam2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    return [
        ("unit_vector", {"type": "unit_vector", "e": e1, "k1": 0.3, "k2": 0.4}),
        ("k_cond", {"type": "k_cond", "e": e1, "K": 2.0}),
        ("karamata", {"type": "karamata", "theta": 0.6}),
        ("cone", {"type": "cone", "phi1": math.pi / 6, "phi2": math.pi / 3}),
        ("disk_d1", {"type": "disk", "e": e1, "eta1": 0.9, "eta2": 0.9}),
        ("disk_d2", {"type": "disk", "e": [[1.0, 0.0], [0.0, 0.0]], "eta1": 0.9, "eta2": 0.85}),
        ("m_bounds", {"type": "m_bounds", "e": e1, "m1": 0.2, "M1": 3.0, "m2": 0.2, "M2": 3.0}),
        ("orthonormal", {"type": "orthonormal", "vectors": fam2, "ks": [0.3, 0.3], "hs": [0.2, 0.2]}),
        ("ortho_disk", {"type": "ortho_disk", "vectors": fam2, "rhos": [0.95, 0.95], "etas": [0.95, 0.95]}),
        (
            "ortho_m_bounds",
            {"type": "ortho_m_bounds", "vectors": fam2, "ms": [0.05, 0.05], "Ms": [4.0, 4.0],
             "ns": [0.05, 0.05], "Ns": [4.0, 4.0]},
        ),
    ]


FAMILY_LABELS = tuple(label for label, _ in _family_hypotheses())


def family_bench_ops(seed: int, work: Path, trials: int) -> list[Op]:
    """One ``cli.run bench`` of ``trials`` trials per family (17 nodes, default rule)."""
    ops = []
    for i, (label, hyp) in enumerate(_family_hypotheses()):
        doc = {"schema": SCHEMA, "hypothesis": hyp, "generator": {"nodes": 17}}
        path = write_doc(work / f"bench_{label}.json", doc)
        config = cli.RunConfig(
            command="bench",
            input_path=str(path),
            seed=seed * FAMILY_SEED_STRIDE * len(FAMILY_LABELS) + i * FAMILY_SEED_STRIDE,
            trials=trials,
        )

        def call(config=config):
            return cli.run(config)

        def verify(result, trials=trials):
            status, doc = result
            _require(status == 0, f"bench exit status {status}")
            _require(doc["violations"] == 0, f"{doc['violations']} bound violations")
            _require(doc["trials"] == trials, "trial count changed")
            _require(doc["min_ratio"] <= doc["mean_ratio"] <= doc["max_ratio"], "ratio stats unordered")
            return json.dumps(doc, sort_keys=True).encode()

        ops.append(Op(label, 17 * trials, call, verify))
    return ops


def document_io(seed: int, work: Path) -> list[Op]:
    """Witness emission, check and certify of a large document, witness round trip."""
    witness_nodes = 10_000
    doc_nodes = 50_000
    rng = rng_for(seed, 1)
    family = unitary(rng, 4)[:, :2].T
    w_hyp = {"type": "orthonormal", "vectors": [_pairs(v) for v in family],
             "ks": [0.5, 0.5], "hs": [0.5, 0.5]}
    w_in = write_doc(work / "witness_request.json",
                     {"schema": SCHEMA, "hypothesis": w_hyp, "node_count": witness_nodes})
    w_out = work / "witness.json"
    w_value = (0.5 + 0.5j) * family.sum(axis=0)

    rng = rng_for(seed, 2)
    t = make_nodes(rng, doc_nodes, jitter=False)
    values, hyp = orthonormal_case(rng, t, smooth=True)
    doc = write_doc(work / "document.json", function_doc(t, values, hyp))
    check_out = work / "document.check.json"
    certify_out = work / "document.certify.json"
    round_out = work / "witness.certify.json"

    def check_witness(out_doc):
        fn = out_doc["function"]
        _require(len(fn["nodes"]) == witness_nodes, "witness node count")
        vals = np.array([[complex(*p) for p in row] for row in fn["values"]])
        _require(np.allclose(vals, w_value[None, :], rtol=0, atol=1e-14), "witness value")

    def check_condition(out_doc):
        _require(out_doc.get("kind") == "condition_report", "not a condition report")
        _require(out_doc["holds"] is True, "hypothesis does not hold")

    def check_round_trip(out_doc):
        _require(out_doc["hypothesis_verified"] is True, "witness fails its hypothesis")
        _require(abs(out_doc["gap"]) <= WITNESS_GAP, f"witness gap {out_doc['gap']!r}")

    return [
        _cli_op("witness d=4 N=1e4", witness_nodes,
                ["witness", "--input", str(w_in), "--output", str(w_out)], w_out, check_witness),
        _cli_op("check d=4 N=5e4", doc_nodes,
                ["check", "--input", str(doc), "--output", str(check_out)], check_out,
                check_condition),
        _cli_op("certify on-node d=4 N=5e4", doc_nodes,
                ["certify", "--quad-refine", "1", "--input", str(doc), "--output", str(certify_out)],
                certify_out, _check_bound_doc(t, values, exact=False)),
        _cli_op("certify witness round trip", witness_nodes,
                ["certify", "--quad-refine", "1", "--input", str(w_out), "--output", str(round_out)],
                round_out, check_round_trip),
    ]


WORKLOADS = {
    "certify-refined": certify_refined,
    "document-io": document_io,
}
