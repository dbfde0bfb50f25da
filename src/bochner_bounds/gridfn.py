"""Sampled vector-valued functions on [a, b] and quadrature of them.

A :class:`GridFunction` stores node values of f: [a, b] -> C^d together with
an interpolation mode ("linear" or "constleft").  Two integrals are needed
downstream: the vector integral of f and the scalar integral of ||f||.  Both
are computed with nonnegative quadrature weights over a common sample grid,
which makes the discrete triangle inequality

    ||integrate_vector(f)|| <= integrate_norm(f)

hold structurally, not just up to quadrature error.

Quadrature sample grids:

* ``trapezoid-on-nodes``: each node interval is split into ``refinement``
  uniform subintervals (interior points interpolated) and the trapezoid rule
  is applied; ``refinement=1`` is the plain trapezoid rule on the nodes.
* ``composite-simpson`` with ``refinement=1`` on a uniform grid: classic
  composite Simpson directly on the node samples (each stencil spans a pair
  of node intervals, so the per-stencil subinterval count is even); an odd
  interval count is finished with the 3/8 rule.  This is the high-accuracy
  mode: node samples are the only true samples of the underlying function.
* ``composite-simpson`` with ``refinement>=2`` (rounded up to even): Simpson
  per node interval over its uniform subdivision.  Interior samples come
  from the interpolant, so refining converges to the integrals of the
  interpolated model; useful as a self-consistency / Richardson control.

Both rules are exact for the stored model: trapezoid and Simpson integrate
the piecewise-linear interpolant's vector integral exactly, and "constleft"
panels are integrated as exact rectangles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "Interval",
    "QuadratureRule",
    "DEFAULT_RULE",
    "GridFunction",
    "sample",
    "evaluate",
    "evaluate_many",
    "integrate_vector",
    "integrate_norm",
    "refine_until",
    "gridfunction_to_dict",
    "gridfunction_from_dict",
]

INTERPOLATIONS = ("linear", "constleft")


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise ValueError(f"interval requires a < b, got [{self.a}, {self.b}]")

    @property
    def length(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature selection: kind, subdivisions per node interval, and the
    tolerance used by :func:`refine_until` for successive-estimate comparison."""

    kind: str = "composite-simpson"
    refinement: int = 8
    tol: float = 1e-10

    def __post_init__(self):
        if self.kind not in ("trapezoid-on-nodes", "composite-simpson"):
            raise ValueError(f"unknown quadrature kind {self.kind!r}")
        if self.refinement < 1:
            raise ValueError("refinement must be >= 1")
        if not self.tol > 0:
            raise ValueError("quadrature tol must be > 0")


DEFAULT_RULE = QuadratureRule()


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Vector-valued samples on strictly increasing nodes t_0=a < ... < t_N=b."""

    interval: Interval
    nodes: np.ndarray
    values: np.ndarray
    interpolation: str = "linear"

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        values = np.array(self.values, dtype=complex)
        if values.ndim == 1:
            values = values[:, None]
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("need at least two nodes")
        if values.ndim != 2 or values.shape[0] != nodes.size:
            raise ValueError(
                f"values shape {values.shape} does not match {nodes.size} nodes"
            )
        if not np.all(np.isfinite(nodes)):
            raise ValueError("nodes: must be finite")
        if not np.all(np.isfinite(values)):
            raise ValueError("values: must be finite")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        if not (np.isclose(nodes[0], self.interval.a, rtol=0, atol=1e-12)
                and np.isclose(nodes[-1], self.interval.b, rtol=0, atol=1e-12)):
            raise ValueError("nodes must start at a and end at b")
        if self.interpolation not in INTERPOLATIONS:
            raise ValueError(f"unknown interpolation {self.interpolation!r}")
        nodes.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def sample(fn, interval: Interval, num_nodes: int, interpolation: str = "linear") -> GridFunction:
    """Sample ``fn(t) -> vector`` at ``num_nodes`` uniform nodes on the interval."""
    ts = np.linspace(interval.a, interval.b, num_nodes)
    vals = np.array([np.atleast_1d(np.asarray(fn(t), dtype=complex)) for t in ts])
    return GridFunction(interval=interval, nodes=ts, values=vals, interpolation=interpolation)


def evaluate_many(f: GridFunction, ts) -> np.ndarray:
    """Interpolated values at each t in ``ts`` (shape (len(ts), d)); exact at nodes."""
    ts = np.asarray(ts, dtype=float)
    if np.any(ts < f.interval.a - 1e-12) or np.any(ts > f.interval.b + 1e-12):
        raise ValueError(f"evaluation point outside [{f.interval.a}, {f.interval.b}]")
    ts = np.clip(ts, f.interval.a, f.interval.b)
    if f.interpolation == "linear":
        out = np.empty((ts.size, f.dim), dtype=complex)
        for j in range(f.dim):
            out[:, j] = np.interp(ts, f.nodes, f.values[:, j].real) + 1j * np.interp(
                ts, f.nodes, f.values[:, j].imag
            )
        return out
    # constleft: value of the node at or immediately left of t, exact at nodes
    idx = np.clip(np.searchsorted(f.nodes, ts, side="right") - 1, 0, f.nodes.size - 1)
    return f.values[idx]


def evaluate(f: GridFunction, t: float) -> np.ndarray:
    """Interpolated value at a single point t in [a, b]."""
    return evaluate_many(f, [float(t)])[0]


def _is_uniform(nodes: np.ndarray) -> bool:
    h = np.diff(nodes)
    return bool(np.max(np.abs(h - h[0])) <= 1e-12 * max(1.0, abs(nodes[-1] - nodes[0])))


def _simpson_weights_uniform(n_intervals: int, h: float) -> np.ndarray:
    """Nonnegative composite Simpson weights for n_intervals uniform steps.

    Even counts use the classic 1-4-2-...-4-1 pattern; odd counts >= 3 finish
    with Simpson 3/8 on the last three steps; a single step falls back to the
    trapezoid (nothing better exists on two samples).
    """
    w = np.zeros(n_intervals + 1)
    if n_intervals == 1:
        w[:] = h / 2.0
        return w
    main = n_intervals if n_intervals % 2 == 0 else n_intervals - 3
    if main > 0:
        w[0] += h / 3.0
        w[main] += h / 3.0
        w[1:main:2] += 4.0 * h / 3.0
        w[2:main:2] += 2.0 * h / 3.0
    if main < n_intervals:  # 3/8 tail on the last three steps
        tail = np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * h / 8.0)
        w[main : main + 4] += tail
    return w


def _even(m: int) -> int:
    return m if m % 2 == 0 else m + 1


def _sample_grid(f: GridFunction, rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    """Common sample points and nonnegative weights for both integrals."""
    nodes = f.nodes
    if f.interpolation == "constleft":
        # the model is constant per half-open panel: rectangles are exact
        return nodes[:-1], np.diff(nodes)
    n_panels = nodes.size - 1
    if rule.kind == "composite-simpson":
        if rule.refinement == 1 and _is_uniform(nodes) and n_panels >= 2:
            h = (nodes[-1] - nodes[0]) / n_panels
            return nodes, _simpson_weights_uniform(n_panels, h)
        m = max(2, _even(rule.refinement))
    else:
        m = rule.refinement
    ts = np.empty(n_panels * m + 1)
    weights = np.zeros(n_panels * m + 1)
    ts[0] = nodes[0]
    for k in range(n_panels):
        sub = np.linspace(nodes[k], nodes[k + 1], m + 1)
        ts[k * m + 1 : (k + 1) * m + 1] = sub[1:]
        h = (nodes[k + 1] - nodes[k]) / m
        if rule.kind == "composite-simpson":
            w = _simpson_weights_uniform(m, h)
        else:
            w = np.full(m + 1, h)
            w[0] = w[-1] = h / 2.0
        weights[k * m : (k + 1) * m + 1] += w
    return ts, weights


def integrate_vector(f: GridFunction, rule: QuadratureRule = DEFAULT_RULE) -> np.ndarray:
    """Quadrature approximation of the componentwise integral of f."""
    ts, w = _sample_grid(f, rule)
    return w @ evaluate_many(f, ts)


def integrate_norm(f: GridFunction, rule: QuadratureRule = DEFAULT_RULE) -> float:
    """Quadrature approximation of the integral of ||f(t)||; nonnegative."""
    ts, w = _sample_grid(f, rule)
    return float(w @ np.linalg.norm(evaluate_many(f, ts), axis=1))


def refine_until(
    f: GridFunction, rule: QuadratureRule, max_doublings: int = 20
) -> tuple[np.ndarray, float, float]:
    """Double ``refinement`` until successive (vector, norm) estimates agree.

    Returns ``(vector_integral, norm_integral, achieved)`` where ``achieved``
    is the last observed difference max(||delta vector||, |delta norm|); it is
    below ``rule.tol`` on success.  Raises RuntimeError if ``max_doublings``
    doublings do not reach the tolerance.
    """
    if not rule.tol > 0:
        raise ValueError("rule.tol must be > 0")
    cur = rule
    vec = integrate_vector(f, cur)
    nrm = integrate_norm(f, cur)
    for _ in range(max_doublings):
        cur = replace(cur, refinement=cur.refinement * 2)
        vec2 = integrate_vector(f, cur)
        nrm2 = integrate_norm(f, cur)
        achieved = max(float(np.linalg.norm(vec2 - vec)), abs(nrm2 - nrm))
        vec, nrm = vec2, nrm2
        if achieved < rule.tol:
            return vec, nrm, achieved
    raise RuntimeError(
        f"quadrature did not converge to {rule.tol:.1e} within {max_doublings} doublings"
    )


def gridfunction_to_dict(f: GridFunction) -> dict:
    """JSON-ready dict with the wire field names {a, b, nodes, values, interp}."""
    return {
        "a": float(f.interval.a),
        "b": float(f.interval.b),
        "nodes": [float(t) for t in f.nodes],
        "values": [[[float(z.real), float(z.imag)] for z in row] for row in f.values],
        "interp": f.interpolation,
    }


def gridfunction_from_dict(d: dict) -> GridFunction:
    """Inverse of :func:`gridfunction_to_dict`; raises ValueError naming bad fields."""
    try:
        a, b = float(d["a"]), float(d["b"])
        nodes = [float(t) for t in d["nodes"]]
        values = [[complex(p[0], p[1]) for p in row] for row in d["values"]]
        interp = d.get("interp", "linear")
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed GridFunction document: {exc!r}") from exc
    widths = {len(row) for row in values}
    if len(widths) != 1:
        raise ValueError("values: rows must share a common dimension")
    return GridFunction(
        interval=Interval(a, b),
        nodes=np.asarray(nodes),
        values=np.asarray(values),
        interpolation=interp,
    )
