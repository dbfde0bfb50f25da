"""Equality witnesses, perturbation scans, and seeded tightness benchmarks.

Witnesses follow the paper's equality case: integral f = (sum (k_j + i h_j)
e_j) * integral ||f||.  A constant function attains it exactly when the
coefficient sqrt(sum k_j^2 + h_j^2) is 1 and the equality direction
sum (k_j + i h_j) e_j itself satisfies the hypothesis, so a witness is
built for any class that passes both tests, and refused otherwise rather
than approximated.

:func:`generate` is the one way to sample a family.  Its samplers read the
constraints (an argument window, cones alone, or balls) and return node
values, which ``generate`` puts on a uniform grid.

All randomness flows through numpy's documented, portable PCG64 bit
generator; a family's trial i uses seed ``base_seed + i``, so serial and
parallel runs agree exactly and identical seeds give bit-identical grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .bounds import certify, coefficient, equality_direction
from .gridfn import DEFAULT_RULE, GridFunction, Interval, QuadratureRule
from .hilbert import combinations, norm, projections, row_norms, row_sums
from .hypotheses import Cone, Hypothesis, Karamata, check, constraints, family_form, tag_of, window

__all__ = [
    "make_witness",
    "perturb_scan",
    "FamilySpec",
    "generate",
    "TightnessStats",
    "tightness",
]

COEFF_SURFACE_ULPS = 4  # distance of a witness's coefficient from 1, in units of ulp(1)
REJECTION_CAP = 10 ** 6  # candidates a rejection sampler may draw per node
VIOLATION_TOL = 1e-8  # a tightness trial with gap below -VIOLATION_TOL is a violation


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _uniform_grid(interval: Interval, values: np.ndarray) -> GridFunction:
    nodes = np.linspace(interval.a, interval.b, len(values))
    return GridFunction(interval=interval, nodes=nodes, values=values, interpolation="linear")


def _repeat(value: np.ndarray, node_count: int) -> np.ndarray:
    return np.tile(np.atleast_1d(value), (node_count, 1))


def make_witness(
    h: Hypothesis,
    interval: Interval = Interval(0.0, 1.0),
    node_count: int = 33,
) -> GridFunction:
    """Constant function on ``node_count`` uniform nodes attaining the bound of ``h`` exactly.

    Its value is the equality direction sum (k_j + i h_j) e_j of the normal
    form.  The hypothesis must lie on the coefficient-1 surface (within
    ``COEFF_SURFACE_ULPS`` ulps of 1), and the direction, as a constant,
    must pass :func:`~.hypotheses.check`; otherwise ValueError reports the
    measured coefficient or names the class.  ``node_count`` must be >= 2.
    """
    if node_count < 2:
        raise ValueError(f"node_count must be >= 2, got {node_count!r}")
    c = coefficient(h)
    if abs(c - 1.0) > COEFF_SURFACE_ULPS * math.ulp(1.0):
        raise ValueError(
            f"witness requires a coefficient-1 hypothesis, got coefficient {c!r}"
        )
    direction = equality_direction(h)
    report = check(_uniform_grid(interval, _repeat(direction, 2)), h)
    if not report.holds:
        raise ValueError(
            f"no constant witness for hypothesis {tag_of(h)!r}: its equality direction "
            f"lies outside the class (worst margin {report.worst_margin!r})"
        )
    return _uniform_grid(interval, _repeat(direction, node_count))


def _widened(h: Hypothesis, eps: float) -> Hypothesis:
    """Hypothesis enlarged to admit a phase spread of eps around a witness.

    An argument window widens by eps/2 on each side, within its own class
    (a symmetric window stays symmetric).  A class of cones on each e_j and
    i e_j rotates its pairs (k_j, h_j); ball classes, and classes that leave
    Im<f, e_j> free, are refused.
    """
    win = window(h)
    if win is not None:
        lo, hi = win[0] - eps / 2.0, win[1] + eps / 2.0
        try:
            return Cone(lo, hi) if isinstance(h, Cone) else Karamata(hi)
        except ValueError as exc:
            raise ValueError(f"phase spread {eps!r} leaves the admissible argument window: {exc}") from None
    (cones, _), (_, radii) = constraints(h)
    vectors, ks, hs = family_form(h)
    if radii.size or len(cones) != 2 * len(vectors):  # balls, or Im<f, e_j> left free
        raise ValueError(f"no phase-spread perturbation for hypothesis {tag_of(h)!r}")
    c, s = math.cos(eps / 2.0), math.sin(eps / 2.0)
    ks, hs = c * ks - s * hs, c * hs - s * ks
    if min(ks) < 0.0 or min(hs) < 0.0:
        raise ValueError(
            f"phase spread {eps!r} leaves the class: a rotated sample gets a negative "
            "Re or Im projection against some family vector, so no admissible constants remain"
        )
    return type(h)(getattr(h, fields(h)[0].name), ks, hs)


def perturb_scan(
    w: GridFunction,
    h: Hypothesis,
    epsilons,
    mode: str = "phase",
    rule: QuadratureRule = DEFAULT_RULE,
) -> list[tuple[float, float]]:
    """Gap of the certified bound along a hypothesis-preserving perturbation.

    ``phase`` mode rotates the witness values by a linear phase ramp of total
    spread eps and scores against the correspondingly widened hypothesis;
    this breaks equality, and the returned gaps grow with eps.  ``amplitude``
    mode modulates the modulus by 1 + eps*sin(2 pi s) with the direction
    fixed, which preserves equality (gaps stay at quadrature noise).  The
    perturbed function keeps ``w``'s nodes and interpolation.  A
    perturbation that would leave the hypothesis class raises ValueError
    naming the violated condition; a bad ``mode`` or epsilon, before the first
    certification.
    """
    if mode not in ("phase", "amplitude"):
        raise ValueError(f"mode: unknown perturbation mode {mode!r}")
    epsilons = sorted(float(e) for e in epsilons)
    for eps in epsilons:
        if not (math.isfinite(eps) and eps >= 0):
            raise ValueError(f"epsilons: must be finite and >= 0, got {eps!r}")
        if mode == "amplitude" and eps >= 1.0:
            raise ValueError(f"epsilons: amplitude modulation {eps!r} >= 1 would let the modulus "
                             "reach zero and flip the direction out of the hypothesis class")
    a, b = w.interval.a, w.interval.b
    s = (w.nodes - a) / (b - a)
    out = []
    for eps in epsilons:
        if mode == "phase":
            phases = np.exp(1j * eps * (s - 0.5))
            values = w.values * phases[:, None]
            h_eps = _widened(h, eps) if eps > 0 else h
        else:
            amp = 1.0 + eps * np.sin(2.0 * math.pi * s)
            values = w.values * amp[:, None]
            h_eps = h
        f_eps = GridFunction(w.interval, w.nodes, values, w.interpolation)
        report = certify(f_eps, h_eps, rule)
        if not report.hypothesis_verified:
            raise ValueError(
                f"perturbation eps={eps!r} left the hypothesis class ({tag_of(h_eps)})"
            )
        out.append((eps, report.gap))
    return out


def _gen_window(
    seed: int,
    lo: float,
    hi: float,
    rmin: float,
    rmax: float,
    nodes: int,
) -> np.ndarray:
    """Scalar samples r*exp(i phi), r ~ U[rmin, rmax], phi ~ U[lo, hi]."""
    rng = _rng(seed)
    r = rng.uniform(rmin, rmax, nodes)
    phi = rng.uniform(lo, hi, nodes)
    return (r * np.exp(1j * phi))[:, None]


def _unit_ball(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Uniform samples from the unit ball of C^dim (as R^{2 dim})."""
    g = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    g /= row_norms(g)[:, None]
    radii = rng.uniform(0.0, 1.0, count) ** (1.0 / (2 * dim))
    return g * radii[:, None]


def _rejection(draw, nodes: int) -> np.ndarray:
    """The first ``nodes`` candidates that ``draw`` keeps, in the order drawn.

    ``draw(batch)`` returns ``batch`` candidates and the mask of those to
    keep.  Raises RuntimeError before drawing more than ``REJECTION_CAP``
    candidates per node.
    """
    accepted: list[np.ndarray] = []
    got = 0
    attempts = 0
    while got < nodes:
        batch = max(128, 4 * (nodes - got))
        if attempts + batch > REJECTION_CAP * nodes:
            raise RuntimeError(
                f"rejection sampling exceeded {REJECTION_CAP} attempts per node "
                f"(accepted {got}/{nodes}); the region is too thin"
            )
        candidates, keep = draw(batch)
        accepted.append(candidates[keep])
        got += int(np.count_nonzero(keep))
        attempts += batch
    return np.concatenate(accepted)[:nodes]


def _gen_two_balls(seed: int, centres: np.ndarray, radii: np.ndarray, nodes: int) -> np.ndarray:
    """Samples from the intersection of two closed balls, or their tangency point.

    Uniform samples from the first ball are kept only if they also lie in
    the second.
    """
    (c1, c2), (r1, r2) = centres, radii.tolist()
    dist = norm(c2 - c1)
    gap_to_touch = (r1 + r2) - dist
    if gap_to_touch < 0.0:
        raise ValueError(
            f"empty intersection: the radii sum to {r1 + r2!r} < {dist!r}, "
            "the distance of the centres; the balls are disjoint"
        )
    if gap_to_touch <= 1e-12:
        return _repeat(c1 + (r1 / dist) * (c2 - c1), nodes)
    rng = _rng(seed)

    def draw(batch):
        cand = c1 + r1 * _unit_ball(rng, batch, c1.size)
        return cand, row_norms(cand - c2) <= r2

    return _rejection(draw, nodes)


def _gen_soc(
    seed: int,
    vectors: np.ndarray,
    lows_re: np.ndarray,
    lows_im: np.ndarray,
    rmin: float,
    rmax: float,
    nodes: int,
) -> np.ndarray:
    """Samples of the homogeneous class Re<f, e_j> >= k_j ||f||, Im >= h_j ||f||.

    Draws unit directions u = sum (a_j + i b_j) e_j + residual with a_j >= k_j,
    b_j >= h_j and sum(a^2 + b^2) <= 1, then scales by r ~ U[rmin, rmax].
    Requires sum(k^2 + h^2) < 1; on the equality surface the class is a single
    ray, which is returned with random radii.
    """
    n, dim = vectors.shape
    budget = float(row_sums(lows_re ** 2) + row_sums(lows_im ** 2))
    rng = _rng(seed)
    r = rng.uniform(rmin, rmax, nodes)
    if budget > 1.0 - 1e-9:
        u = combinations(lows_re, lows_im, vectors)
        return r[:, None] * u[None, :]

    def draw(batch):
        a = rng.uniform(lows_re[None, :], 1.0, size=(batch, n))
        b = rng.uniform(lows_im[None, :], 1.0, size=(batch, n))
        return a + 1j * b, row_sums(a * a + b * b) <= 1.0

    coeffs = _rejection(draw, nodes)
    vals = combinations(coeffs.real, coeffs.imag, vectors)
    slack = np.sqrt(np.maximum(0.0, 1.0 - row_sums(np.square(coeffs.view(float)))))
    if dim > n:
        g = rng.normal(size=(nodes, dim)) + 1j * rng.normal(size=(nodes, dim))
        g -= combinations(projections(g, vectors).T, projections(g, 1j * vectors).T, vectors)
        nrm = row_norms(g)
        nrm[nrm == 0] = 1.0
        g /= nrm[:, None]
        vals = vals + (slack * rng.uniform(0.0, 1.0, nodes))[:, None] * g
    return r[:, None] * vals


def _gen_inner_ball(seed: int, centers: np.ndarray, radii: np.ndarray, nodes: int) -> np.ndarray:
    """Samples from a ball inscribed in an intersection of balls.

    Uses the centroid of the constraint centers; fails if no inscribed ball
    of positive radius exists there.
    """
    v = (row_sums(centers.view(float).T) / len(centers)).view(complex)
    slack = radii - row_norms(centers - v)
    delta = float(np.min(slack))
    if delta <= 0.0:
        raise ValueError(
            "could not inscribe a ball in the constraint intersection; "
            f"worst slack {delta!r} (the class may be empty or too thin)"
        )
    rng = _rng(seed)
    return v + (0.999 * delta) * _unit_ball(rng, nodes, centers.shape[1])


@dataclass(frozen=True)
class FamilySpec:
    """Seeded generator family matched to a hypothesis.

    ``rmin``/``rmax`` bound the modulus for the homogeneous (cone-like)
    variants; ball-type variants ignore them.
    """

    hypothesis: Hypothesis
    seed: int
    nodes: int = 17
    interval: Interval = Interval(0.0, 1.0)
    rmin: float = 0.5
    rmax: float = 1.5

    def __post_init__(self):
        if self.nodes < 2:
            raise ValueError(f"nodes must be >= 2, got {self.nodes!r}")
        if not 0.0 < self.rmin <= self.rmax < math.inf:
            raise ValueError(f"need finite 0 < rmin <= rmax, got ({self.rmin!r}, {self.rmax!r})")


def generate(spec: FamilySpec, trial: int = 0) -> GridFunction:
    """Grid function for one trial; trial i uses seed ``spec.seed + i``."""
    return _uniform_grid(spec.interval, _node_values(spec, spec.seed + trial))


def _node_values(spec: FamilySpec, seed: int) -> np.ndarray:
    """One trial's node values, from the sampler of the hypothesis's constraint form."""
    h = spec.hypothesis
    win = window(h)
    if win is not None:
        return _gen_window(seed, *win, spec.rmin, spec.rmax, spec.nodes)
    centres, radii = constraints(h)[1]
    if not radii.size:
        return _gen_soc(seed, *family_form(h), spec.rmin, spec.rmax, spec.nodes)
    if radii.size == 2:
        try:
            return _gen_two_balls(seed, centres, radii, spec.nodes)
        except RuntimeError:  # too thin for rejection sampling
            pass
    # more than two balls, or two that rejection cannot hit: sample a ball
    # inscribed in them all
    return _gen_inner_ball(seed, centres, radii, spec.nodes)


@dataclass(frozen=True)
class TightnessStats:
    """Aggregate of lower_bound / true_norm ratios over seeded trials."""

    trials: int
    mean_ratio: float
    min_ratio: float
    max_ratio: float
    violations: int


def tightness(
    trials: int,
    family: FamilySpec,
    h: Hypothesis,
    rule: QuadratureRule = DEFAULT_RULE,
) -> TightnessStats:
    """Certify ``trials`` generated functions against ``h`` and aggregate ratios.

    ``violations`` counts trials with gap < -VIOLATION_TOL, i.e. bound
    failures beyond tolerance; it is expected to stay at zero whenever the
    family is consistent with the hypothesis.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    ratios = np.empty(trials)
    violations = 0
    for t in range(trials):
        f = generate(family, t)
        report = certify(f, h, rule)
        ratios[t] = report.lower_bound / report.true_norm
        if report.gap < -VIOLATION_TOL:
            violations += 1
    return TightnessStats(
        trials=trials,
        mean_ratio=float(row_sums(ratios) / trials),
        min_ratio=float(np.min(ratios)),
        max_ratio=float(np.max(ratios)),
        violations=violations,
    )
