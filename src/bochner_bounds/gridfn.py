"""Sampled vector-valued functions on [a, b] and quadrature of them.

A :class:`GridFunction` stores node values of f: [a, b] -> C^d together with
an interpolation mode ("linear" or "constleft").  Its interval is its node
span: ``a`` and ``b`` must equal the first and last node exactly.  Two
integrals are needed downstream: the vector integral of f and the scalar
integral of ||f||.  Both use only the nodes and their values, by one of
four methods, which :func:`_method` picks from f and the rule:

* ``rectangles``: ``constleft`` data, under every rule.  The model is
  constant per half-open panel, so rectangles on the left node values are
  exact.
* ``simpson``: ``composite-simpson`` with ``refinement == 1`` on a uniform
  grid (every spacing equal to the first within 1e-12 of the span) of at
  least two panels.  Classic composite Simpson on the node samples of f and
  of ||f|| (an odd panel count ends with the 3/8 rule), the "smooth truth"
  mode.
* ``trapezoid``: ``trapezoid-on-nodes`` with ``refinement == 1``.  The
  trapezoid rule on the node samples of f and of ||f||.
* ``model``: every other ``linear`` case, whatever the refinement.  The
  exact integrals of the piecewise-linear model: the vector integral is
  the trapezoid rule, the norm integral sums :func:`panel_norm_integrals`.

All weights are nonnegative and every exact panel norm integral is at least
the norm of the panel's midpoint, so the discrete triangle inequality

    ||integrate_vector(f)|| <= integrate_norm(f)

holds structurally for the exact values of both sides under every rule,
not just up to quadrature error.  In floats both are sums in the order of
:func:`~.hilbert.row_sums`, on every CPU the same, each within a few ulps
times log2 of the node count; the float inequality can fail only where the
exact one is that tight, as for a constant function.  No tolerance is
absolute, so the integrals are homogeneous in t (nodes 2^k t give 2^k times
the integrals on t) and in f: their terms are summed in one power-of-two
scale, so 2^k f gives exactly 2^k times them wherever all are normal floats.

:func:`gridfunction_to_dict` and :func:`gridfunction_from_dict` are the wire
form ``{a, b, nodes, values, interp}``, with ``nodes`` and ``values`` as
float64 arrays (``values`` of shape (n, d, 2), ``[re, im]`` pairs) for
:func:`.jsonio.dumps`.  Decoding applies the number rule of :mod:`.jsonio`
(JSON numbers, ``[re, im]`` pairs of two, one row width d >= 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import pow2_exponents, pow2_scaled, row_norms, row_sums
from .jsonio import decode_floats, decode_pairs

__all__ = [
    "Interval",
    "QuadratureRule",
    "DEFAULT_RULE",
    "GridFunction",
    "sample",
    "evaluate_many",
    "integrate_vector",
    "integrate_norm",
    "panel_norm_integrals",
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
    """Quadrature kind and refinement; the module docstring says what each rule does."""

    kind: str = "composite-simpson"
    refinement: int = 8

    def __post_init__(self):
        if self.kind not in ("trapezoid-on-nodes", "composite-simpson"):
            raise ValueError(f"kind: unknown quadrature kind {self.kind!r}")
        if self.refinement < 1:
            raise ValueError(f"refinement: must be >= 1, got {self.refinement}")


DEFAULT_RULE = QuadratureRule()


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Vector-valued samples on strictly increasing nodes a = t_0 < ... < t_N = b."""

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
        if values.shape[1] == 0:
            raise ValueError("values: need at least one component per node (d >= 1)")
        if not np.all(np.isfinite(values)):
            raise ValueError("values: must be finite")
        if not np.all(nodes[1:] > nodes[:-1]):
            raise ValueError("nodes must be strictly increasing")
        if not (nodes[0] == self.interval.a and nodes[-1] == self.interval.b):
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
    if not np.all((ts >= f.interval.a) & (ts <= f.interval.b)):
        raise ValueError(f"evaluation point outside [{f.interval.a}, {f.interval.b}]")
    if f.interpolation == "linear":
        out = np.empty((ts.size, f.dim), dtype=complex)
        for j in range(f.dim):
            out[:, j] = np.interp(ts, f.nodes, f.values[:, j].real) + 1j * np.interp(
                ts, f.nodes, f.values[:, j].imag
            )
        return out
    # constleft: value of the node at or immediately left of t, exact at nodes
    return f.values[np.searchsorted(f.nodes, ts, side="right") - 1]


def _span(nodes: np.ndarray) -> tuple[float, float]:
    """``(s, m)`` with the node span s * m: m = 1, or m = 2 where the span overflows."""
    span = nodes[-1] - nodes[0]  # callers ignore the overflow
    return (span, 1.0) if span < np.inf else (nodes[-1] / 2.0 - nodes[0] / 2.0, 2.0)


def _is_uniform(nodes: np.ndarray) -> bool:
    h = np.diff(nodes)
    span, m = _span(nodes)
    return bool(np.max(np.abs(h - h[0])) <= 1e-12 * span * m)


def _simpson_weights_uniform(n_intervals: int, h: float) -> np.ndarray:
    """Nonnegative composite Simpson weights for n_intervals >= 2 uniform steps.

    Even counts use the classic 1-4-2-...-4-1 pattern; odd counts finish
    with Simpson 3/8 on the last three steps.
    """
    w = np.zeros(n_intervals + 1)
    main = n_intervals if n_intervals % 2 == 0 else n_intervals - 3
    if main > 0:
        w[0] += h / 3.0
        w[main] += h / 3.0
        w[1:main:2] += h / 0.75  # 4h/3 and 2h/3, with no product past the float range
        w[2:main:2] += h / 1.5
    if main < n_intervals:  # 3/8 tail on the last three steps
        tail = np.array([1.0, 3.0, 3.0, 1.0]) * (h * 0.375)
        w[main : main + 4] += tail
    return w


def _method(f: GridFunction, rule: QuadratureRule) -> str:
    """The method ``rule`` takes on f; the module docstring says what each does."""
    if f.interpolation == "constleft":
        return "rectangles"
    if rule.refinement == 1:
        if rule.kind == "trapezoid-on-nodes":
            return "trapezoid"
        if f.nodes.size >= 3 and _is_uniform(f.nodes):
            return "simpson"
    return "model"


def _node_weights(nodes: np.ndarray, method: str) -> np.ndarray:
    """Nonnegative weights of ``method`` on the first ``w.size`` nodes."""
    if method == "rectangles":
        return np.diff(nodes)
    if method == "simpson":
        span, m = _span(nodes)
        return _simpson_weights_uniform(nodes.size - 1, span / (nodes.size - 1) * m)
    half = np.diff(nodes) / 2.0  # trapezoid: half of each adjacent panel
    w = np.zeros(nodes.size)
    w[:-1] += half
    w[1:] += half
    return w


def panel_norm_integrals(x0: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """``integral_0^1 ||x0_k + s (x1_k - x0_k)|| ds`` for each row pair, in closed form.

    With v = x1 - x0, L = ||v||, n_i = ||x_i||, p_i = Re<x_i, v>/L, h the
    distance from 0 to the panel's line, and the panel oriented so that
    p0 + p1 >= 0:

        I = (n0+n1)/4 + (p0+p1)^2 / (4(n0+n1))
            + h^2/(2L) log1p(L(n0+n1+p0+p1) / ((n0+n1)(p0+n0))),

    with p0 + n0 = h^2/(n0 - p0) when p0 < 0, so nothing cancels; the log
    term is 0 when p0 + n0 is, and I = n0 when L = 0.  h is taken from the
    midpoint, so I is bit-for-bit symmetric in the endpoints.  I is clamped
    to at least the midpoint's norm (Jensen), so the triangle inequality of
    the integrals holds by construction.  Each panel is scaled exactly by
    :func:`~bochner_bounds.hilbert.pow2_scaled`, so no square under- or
    overflows.
    """
    with np.errstate(over="ignore"):  # a panel integral past the float range is inf
        return np.ldexp(*_scaled_panel_norm_integrals(x0, x1))


def _scaled_panel_norm_integrals(x0: np.ndarray, x1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`panel_norm_integrals` as (I_k / 2^e_k, e_k), each panel in its own scale."""
    (a, b), exp = pow2_scaled(x0, x1)  # C^d as R^2d: Re<x, y> is the dot product
    na, nb = row_norms(a), row_norms(b)
    mid = 0.5 * a + 0.5 * b
    n0, n_sum = np.minimum(na, nb), na + nb
    v = b - a
    length = row_norms(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = v / length[:, None]
        pm = row_sums(mid * u)  # (p0 + p1) / 2 before orienting
        h2 = np.square(row_norms(mid - pm[:, None] * u))
        pm = np.abs(pm)
        p0 = pm - length / 2.0
        base = np.where(p0 >= 0, p0 + n0, h2 / (n0 - p0))
        num, den = length * (n_sum + 2.0 * pm), n_sum * base
        with np.errstate(over="ignore"):  # num / den is inf where h2 is subnormal
            ratio = num / den
        log1p = np.log1p(ratio)
        far = ~(ratio < np.inf)
        if far.any():
            log1p[far] = np.log(num[far]) - np.log(den[far])
        log_term = np.where(base > 0, h2 / (2.0 * length) * log1p, 0.0)
        exact = np.where(length > 0, n_sum / 4.0 + pm * pm / n_sum + log_term, na)
    return np.maximum(exact, row_norms(mid)), exp


def integrate_vector(f: GridFunction, rule: QuadratureRule = DEFAULT_RULE) -> np.ndarray:
    """Componentwise integral of f under ``rule``, with all values in one power-of-two scale."""
    with np.errstate(over="ignore", invalid="ignore"):  # a spacing past the float range: inf weights
        w = _node_weights(f.nodes, _method(f, rule))
    values = f.values[: w.size]
    return _summed(w, values.view(float).T, 0, pow2_exponents(values.ravel())).view(complex)


def integrate_norm(f: GridFunction, rule: QuadratureRule = DEFAULT_RULE) -> float:
    """Integral of ||f(t)|| under ``rule``; nonnegative.

    No square under- or overflows: each node (rules on the nodes) or panel
    (the model rule) is scaled by its own power of two, :func:`~.hilbert.pow2_scaled`,
    and the terms are summed in the largest one's scale.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a spacing past the float range: inf weights
        method = _method(f, rule)
        w = np.diff(f.nodes) if method == "model" else _node_weights(f.nodes, method)
    if method == "model":
        terms, exp = _scaled_panel_norm_integrals(f.values[:-1], f.values[1:])
    else:
        (scaled,), exp = pow2_scaled(f.values[: w.size])
        terms = row_norms(scaled)
    return float(_summed(w, terms, exp, np.max(exp)))


def _summed(w: np.ndarray, terms: np.ndarray, exp, top) -> np.ndarray:
    """``sum_k w_k terms_k 2^exp_k`` along the last axis, by row_sums at the scale 2^top."""
    # an integral past the float range is inf, and nan where an infinite weight meets a zero term
    with np.errstate(over="ignore", invalid="ignore"):
        # C order: a transposed ``terms`` is laid out for row_sums in the same pass
        return np.ldexp(row_sums(w * np.ldexp(terms, exp - top, order="C")), top)


def gridfunction_to_dict(f: GridFunction) -> dict:
    """The wire fields {a, b, nodes, values, interp}, ready for :func:`.jsonio.dumps`.

    ``nodes`` and ``values`` are copy-free float64 views of ``f``'s arrays
    (``json.dumps`` needs their ``.tolist()``).
    """
    return {
        "a": float(f.interval.a),
        "b": float(f.interval.b),
        "nodes": f.nodes,
        "values": f.values.view(float).reshape(*f.values.shape, 2),
        "interp": f.interpolation,
    }


def gridfunction_from_dict(d: dict) -> GridFunction:
    """Inverse of :func:`gridfunction_to_dict`; raises ValueError naming bad fields.

    Numbers follow the rule of :mod:`.jsonio`; ``values`` holds one row of
    d >= 1 ``[re, im]`` pairs per node.
    """
    if not isinstance(d, dict):
        raise ValueError("expected an object with fields a, b, nodes, values")

    def field(key: str, decode, ndim: int) -> np.ndarray:
        if key not in d:
            raise ValueError(f"{key}: missing")
        try:
            return decode(d[key], ndim)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None

    interp = d.get("interp", "linear")
    if interp not in INTERPOLATIONS:
        raise ValueError(f"interp: unknown interpolation {interp!r}")
    return GridFunction(
        interval=Interval(float(field("a", decode_floats, 0)), float(field("b", decode_floats, 0))),
        nodes=field("nodes", decode_floats, 1),
        values=field("values", decode_pairs, 2),
        interpolation=interp,
    )
