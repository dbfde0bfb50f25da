"""Numerical certification of reverse triangle inequalities for vector-valued integrals."""

from .bounds import BoundReport, certify, coefficient, equality_holds, karamata_vs_cone
from .gridfn import (
    DEFAULT_RULE,
    GridFunction,
    Interval,
    QuadratureRule,
    evaluate_many,
    gridfunction_from_dict,
    gridfunction_to_dict,
    integrate_norm,
    integrate_vector,
    panel_norm_integrals,
    sample,
)
from .hilbert import (
    GramViolation,
    OrthonormalFamily,
    bessel_defect,
    check_orthonormal,
    inner,
    norm,
    span_projection,
)
from .hypotheses import (
    Cone,
    ConditionReport,
    Disk,
    Hypothesis,
    Karamata,
    KCond,
    MBounds,
    Orthonormal,
    OrthoDisk,
    OrthoMBounds,
    UnitVector,
    check,
    disk_feasible,
    disk_to_k,
    estimate_K,
    estimate_unit_vector,
    hypothesis_from_dict,
    hypothesis_to_dict,
    mM_to_k,
    mforms_agree,
)

# the witness generators load on first use, so that check, certify and
# integrate never import them (PEP 562)
_WITNESS_NAMES = (
    "FamilySpec",
    "TightnessStats",
    "generate",
    "make_witness",
    "perturb_scan",
    "tightness",
)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _WITNESS_NAMES:
        from . import witness

        return getattr(witness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_WITNESS_NAMES))
