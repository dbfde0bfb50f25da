"""Reverse-inequality coefficients, certified lower bounds, equality cases.

Each hypothesis class implies, through its normal form
:func:`~bochner_bounds.hypotheses.family_form`, an orthonormal family e_j and
constants k_j, h_j >= 0 with k_j ||f|| <= Re<f, e_j> pointwise, and
h_j ||f|| <= Im<f, e_j> pointwise where h_j > 0.  Then

    c * integral ||f(t)|| dt  <=  || integral f(t) dt ||,   c = sqrt(sum_j k_j^2 + h_j^2),

with equality iff ``integral f = (sum_j (k_j + i h_j) e_j) * integral ||f||``.
:func:`certify` evaluates both sides by quadrature and also predicts that
equality vector, so the bound and its sharpness characterization can be
tested in both directions on concrete data, for every class.  Each class's
constants (k_j, h_j) are derived in ``family_form`` alone, and README's
table of classes lists them.

A coefficient above 1 certifies that the hypothesis class is empty (no
function can beat the triangle inequality) and is reported as a warning, not
an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gridfn import DEFAULT_RULE, GridFunction, QuadratureRule, integrate_norm, integrate_vector
from .hilbert import combinations, norm, row_sums
from .hypotheses import DEFAULT_CHECK_TOL, Cone, Hypothesis, check, family_form, require_tol, tag_of
from .jsonio import encode_pairs

__all__ = [
    "coefficient",
    "equality_direction",
    "BoundReport",
    "certify",
    "equality_holds",
    "karamata_vs_cone",
    "bound_report_to_dict",
]


def coefficient(h: Hypothesis) -> float:
    """Closed-form lower-bound coefficient sqrt(sum k_j^2 + h_j^2) (unclamped)."""
    _, ks, hs = family_form(h)
    return math.sqrt(row_sums(ks * ks + hs * hs))


def equality_direction(h: Hypothesis) -> np.ndarray:
    """Predicted value of (integral f) / (integral ||f||) in the equality case.

    ``sum_j (k_j + i h_j) e_j``, in real arithmetic by :func:`~.hilbert.combinations`.
    """
    vectors, ks, hs = family_form(h)
    return combinations(ks, hs, vectors)


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Outcome of one certification run.

    ``coefficient`` is clamped to [0, 1]; ``coefficient_exceeds_one`` flags
    formulas above 1 (empty hypothesis class).  ``gap = true_norm -
    lower_bound`` and ``equality_residual = ||integral f - equality_vector||``
    measure the two directions of the sharpness characterization.
    """

    hypothesis_tag: str
    coefficient: float
    coefficient_exceeds_one: bool
    lower_bound: float
    true_norm: float
    gap: float
    equality_vector: np.ndarray
    equality_residual: float
    hypothesis_verified: bool


def certify(
    f: GridFunction,
    h: Hypothesis,
    rule: QuadratureRule = DEFAULT_RULE,
    tol: float = DEFAULT_CHECK_TOL,
) -> BoundReport:
    """Check the hypothesis, evaluate both sides of the bound, predict equality."""
    report = check(f, h, tol)  # raises on dimension mismatch
    raw = coefficient(h)
    coeff = min(raw, 1.0)
    vec = integrate_vector(f, rule)
    norm_integral = integrate_norm(f, rule)
    true_norm = norm(vec)
    lower = coeff * norm_integral
    with np.errstate(invalid="ignore"):  # 0 * inf and inf - inf, for integrals past the float range
        eq_vec = (equality_direction(h).view(float) * norm_integral).view(complex)
        residual = norm(vec - eq_vec)
    return BoundReport(
        hypothesis_tag=tag_of(h),
        coefficient=coeff,
        coefficient_exceeds_one=raw > 1.0,
        lower_bound=float(lower),
        true_norm=true_norm,
        gap=float(true_norm - lower),
        equality_vector=eq_vec,
        equality_residual=residual,
        hypothesis_verified=report.holds,
    )


def equality_holds(report: BoundReport, tol: float = DEFAULT_CHECK_TOL) -> bool:
    """Whether gap and residual are both <= tol * max(1, ||integral f||); tol finite and > 0."""
    require_tol(tol)
    scale = max(1.0, report.true_norm)
    return report.gap <= tol * scale and report.equality_residual <= tol * scale


def karamata_vs_cone(phi1: float, phi2: float) -> tuple[float, float]:
    """Coefficients of the symmetric window cos(phi2) vs the cone bound.

    Returns (cos phi2, sqrt(sin^2 phi1 + cos^2 phi2)); the second never loses
    and is strictly larger whenever phi1 > 0.
    """
    return math.cos(phi2), coefficient(Cone(phi1, phi2))


def bound_report_to_dict(report: BoundReport) -> dict:
    """JSON-ready dict with all fields; the equality vector as [re, im] pairs."""
    return {
        "hypothesis": report.hypothesis_tag,
        "coefficient": report.coefficient,
        "coefficient_exceeds_one": report.coefficient_exceeds_one,
        "lower_bound": report.lower_bound,
        "true_norm": report.true_norm,
        "gap": report.gap,
        "equality_vector": encode_pairs(report.equality_vector),
        "equality_residual": report.equality_residual,
        "hypothesis_verified": report.hypothesis_verified,
    }
