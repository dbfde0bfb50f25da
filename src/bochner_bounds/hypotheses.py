"""Pointwise hypothesis classes, their normal form, checkers and estimators.

Every hypothesis is a pointwise condition on f(t) relative to a unit vector e
(or an orthonormal family), e.g. ``k1*||f|| <= Re<f, e>`` or
``||f - e|| <= eta1``.  A check evaluates the condition's slack at the
stored nodes of f and reports the worst margin.  That is exact for the whole
interpolated model, ``linear`` or ``constleft``: each slack below is a
concave function of f(t) divided by a constant of the panel, so along a
linear panel no slack has an interior minimum, and a panel's worst slack
sits at one of its two nodes.

One normal form covers all nine classes: :func:`family_form` maps each to
rows e_j of an orthonormal family and constants (k_j, h_j) such that
``k_j*||f|| <= Re<f, e_j>`` follows pointwise, and so does
``h_j*||f|| <= Im<f, e_j>`` where h_j > 0 (``KCond`` and ``Karamata``
have h = 0 and leave Im<f, e> free).  The single-vector classes are their
family counterparts at n = 1, the disk and annulus radii give
``k = sqrt(1 - eta^2)`` and ``k = 2 sqrt(mM)/(M+m)``, the cone is
``e = 1, k = cos phi2, h = sin phi1``, the symmetric window is
``KCond(e=1, K=1/cos theta)``, and the K-condition is ``k = 1/K, h = 0``.

Each class is also exactly an intersection of two primitive constraints,
which :func:`constraints` lists and the check evaluates: cones
``k*||f|| <= Re<f, c>`` (unit c, k >= 0) and balls ``||f - c|| <= r``.
The slack of each kind (negative slack = violated point) is

* cone: ``(Re<f, c> - k*||f||) / S``, where S is the sup norm of the model
  on the panel: the larger of a linear panel's two end norms, or the left
  node's own norm for ``constleft``.  A node takes the least slack over the
  panels that touch it, and slack 0 where S = 0.  So a cone margin is
  relative, even where f is small next to its largest value, and unchanged
  by f -> 2^k f;
* ball: ``r - ||f - c||``, in absolute units, as the centre fixes the scale.

A node where f(t) = 0 has cone slack 0.  Every norm is of a row scaled by its
own power of two, the package's one rule (:func:`~.hilbert.pow2_scaled`).
"""

from __future__ import annotations

import math
from dataclasses import Field, dataclass, fields

import numpy as np

from .gridfn import GridFunction
from .hilbert import (OrthonormalFamily, as_vector, norm, pow2_exponents, pow2_scaled, projections,
                      row_norms)
from .jsonio import decode_floats, decode_pairs, encode_pairs

__all__ = [
    "KCond",
    "Karamata",
    "UnitVector",
    "Disk",
    "MBounds",
    "Orthonormal",
    "OrthoDisk",
    "OrthoMBounds",
    "Cone",
    "Hypothesis",
    "family_form",
    "constraints",
    "window",
    "ConditionReport",
    "check",
    "require_tol",
    "mforms_agree",
    "estimate_unit_vector",
    "estimate_K",
    "disk_to_k",
    "mM_to_k",
    "disk_feasible",
    "tag_of",
    "hypothesis_to_dict",
    "hypothesis_from_dict",
]

UNIT_TOL = 1e-12
DEFAULT_CHECK_TOL = 1e-9


def require_tol(tol: float) -> None:
    """Raise ValueError unless the tolerance ``tol`` is finite and > 0."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol: must be finite and > 0, got {tol!r}")


def _require_unit(e, name: str) -> np.ndarray:
    v = as_vector(e)
    if not abs(norm(v) - 1.0) <= UNIT_TOL:  # also rejects NaN
        raise ValueError(f"{name} must be a unit vector, got norm {norm(v)!r}")
    return v


def _require_nonneg(x: float, name: str) -> float:
    if not (math.isfinite(x) and x >= 0):
        raise ValueError(f"{name} must be >= 0, got {x!r}")
    return float(x)


def _require_open01(x: float, name: str) -> float:
    if not (0.0 < x < 1.0):
        raise ValueError(f"{name} must lie in (0, 1), got {x!r}")
    return float(x)


def _require_pair(m: float, M: float, mname: str, Mname: str) -> None:
    if not 0 < m <= M < math.inf:
        raise ValueError(f"need finite {Mname} >= {mname} > 0, got {mname}={m!r}, {Mname}={M!r}")


@dataclass(frozen=True, eq=False)
class KCond:
    """||f(t)|| <= K * Re<f(t), e> with K >= 1."""

    e: np.ndarray
    K: float

    def __post_init__(self):
        object.__setattr__(self, "e", _require_unit(self.e, "e"))
        if not 1.0 <= self.K < math.inf:
            raise ValueError(f"K must be finite and >= 1, got {self.K!r}")


@dataclass(frozen=True)
class Karamata:
    """-theta <= arg f(t) <= theta for scalar f, theta in (0, pi/2)."""

    theta: float

    def __post_init__(self):
        if not (0.0 < self.theta < math.pi / 2):
            raise ValueError(f"theta must lie in (0, pi/2), got {self.theta!r}")


@dataclass(frozen=True, eq=False)
class UnitVector:
    """k1*||f|| <= Re<f, e> and k2*||f|| <= Im<f, e> with k1, k2 >= 0."""

    e: np.ndarray
    k1: float
    k2: float

    def __post_init__(self):
        object.__setattr__(self, "e", _require_unit(self.e, "e"))
        _require_nonneg(self.k1, "k1")
        _require_nonneg(self.k2, "k2")


@dataclass(frozen=True, eq=False)
class Disk:
    """||f - e|| <= eta1 and ||f - i e|| <= eta2 with eta in (0, 1)."""

    e: np.ndarray
    eta1: float
    eta2: float

    def __post_init__(self):
        object.__setattr__(self, "e", _require_unit(self.e, "e"))
        _require_open01(self.eta1, "eta1")
        _require_open01(self.eta2, "eta2")


@dataclass(frozen=True, eq=False)
class MBounds:
    """Re<M1 e - f, f - m1 e> >= 0 and the same with (m2, M2) against i e."""

    e: np.ndarray
    m1: float
    M1: float
    m2: float
    M2: float

    def __post_init__(self):
        object.__setattr__(self, "e", _require_unit(self.e, "e"))
        _require_pair(self.m1, self.M1, "m1", "M1")
        _require_pair(self.m2, self.M2, "m2", "M2")


@dataclass(frozen=True, eq=False)
class Orthonormal:
    """k_j*||f|| <= Re<f, e_j> and h_j*||f|| <= Im<f, e_j> for each family member."""

    fam: OrthonormalFamily
    ks: tuple
    hs: tuple

    def __post_init__(self):
        ks = tuple(_require_nonneg(k, "ks") for k in np.atleast_1d(self.ks))
        hs = tuple(_require_nonneg(h, "hs") for h in np.atleast_1d(self.hs))
        if len(ks) != self.fam.n or len(hs) != self.fam.n:
            raise ValueError(f"ks/hs must have one entry per family vector ({self.fam.n})")
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "hs", hs)


@dataclass(frozen=True, eq=False)
class OrthoDisk:
    """||f - e_k|| <= rho_k and ||f - i e_k|| <= eta_k for each family member."""

    fam: OrthonormalFamily
    rhos: tuple
    etas: tuple

    def __post_init__(self):
        rhos = tuple(_require_open01(r, "rhos") for r in np.atleast_1d(self.rhos))
        etas = tuple(_require_open01(r, "etas") for r in np.atleast_1d(self.etas))
        if len(rhos) != self.fam.n or len(etas) != self.fam.n:
            raise ValueError(f"rhos/etas must have one entry per family vector ({self.fam.n})")
        object.__setattr__(self, "rhos", rhos)
        object.__setattr__(self, "etas", etas)


@dataclass(frozen=True, eq=False)
class OrthoMBounds:
    """Re<M_k e_k - f, f - m_k e_k> >= 0 and Re<N_k i e_k - f, f - n_k i e_k> >= 0."""

    fam: OrthonormalFamily
    ms: tuple
    Ms: tuple
    ns: tuple
    Ns: tuple

    def __post_init__(self):
        ms = tuple(float(x) for x in np.atleast_1d(self.ms))
        Ms = tuple(float(x) for x in np.atleast_1d(self.Ms))
        ns = tuple(float(x) for x in np.atleast_1d(self.ns))
        Ns = tuple(float(x) for x in np.atleast_1d(self.Ns))
        if not (len(ms) == len(Ms) == len(ns) == len(Ns) == self.fam.n):
            raise ValueError(f"ms/Ms/ns/Ns must have one entry per family vector ({self.fam.n})")
        for m, M in zip(ms, Ms):
            _require_pair(m, M, "ms", "Ms")
        for n_, N in zip(ns, Ns):
            _require_pair(n_, N, "ns", "Ns")
        for name, val in (("ms", ms), ("Ms", Ms), ("ns", ns), ("Ns", Ns)):
            object.__setattr__(self, name, val)


@dataclass(frozen=True)
class Cone:
    """0 <= phi1 <= arg f(t) <= phi2 < pi/2 for scalar f."""

    phi1: float
    phi2: float

    def __post_init__(self):
        if not (0.0 <= self.phi1 <= self.phi2 < math.pi / 2):
            raise ValueError(
                f"need 0 <= phi1 <= phi2 < pi/2, got phi1={self.phi1!r}, phi2={self.phi2!r}"
            )


Hypothesis = (
    KCond | Karamata | UnitVector | Disk | MBounds | Orthonormal | OrthoDisk | OrthoMBounds | Cone
)

_TAGS = {
    KCond: "k_cond",
    Karamata: "karamata",
    UnitVector: "unit_vector",
    Disk: "disk",
    MBounds: "m_bounds",
    Orthonormal: "orthonormal",
    OrthoDisk: "ortho_disk",
    OrthoMBounds: "ortho_m_bounds",
    Cone: "cone",
}


def tag_of(h: Hypothesis) -> str:
    return _TAGS[type(h)]


_FAMILIES = (Orthonormal, OrthoDisk, OrthoMBounds)

# the unit vector 1 of C^1 as a one-row family, shared by the angular classes
_SCALAR_E = np.ones((1, 1), dtype=complex)
_SCALAR_E.setflags(write=False)


def _per_vector(h: Hypothesis) -> tuple[np.ndarray, list[np.ndarray]]:
    """Unit vectors as rows, and each remaining field as one entry per row.

    UnitVector, Disk and MBounds list their constants in the field order of
    Orthonormal, OrthoDisk and OrthoMBounds, so each is read as n = 1 there.
    """
    vectors = h.fam.vectors if isinstance(h, _FAMILIES) else h.e[None, :]
    return vectors, [np.array(getattr(h, f.name), dtype=float, ndmin=1) for f in fields(h)[1:]]


def family_form(h: Hypothesis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The normal form ``(vectors, ks, hs)`` every hypothesis class implies.

    Rows e_j of ``vectors`` are orthonormal and the class implies
    ``ks[j]*||f|| <= Re<f, e_j>`` at every point, and ``hs[j]*||f|| <=
    Im<f, e_j>`` at every point where ``hs[j] > 0``.  This is the only place
    that knows each class's derived constants.
    """
    if isinstance(h, Cone):
        return _SCALAR_E, np.array([math.cos(h.phi2)]), np.array([math.sin(h.phi1)])
    if isinstance(h, Karamata):
        return _SCALAR_E, np.array([math.cos(h.theta)]), np.zeros(1)
    if isinstance(h, KCond):
        return h.e[None, :], np.array([1.0 / h.K]), np.zeros(1)
    if isinstance(h, (UnitVector, Orthonormal)):
        vectors, (ks, hs) = _per_vector(h)
        return vectors, ks, hs
    if isinstance(h, (Disk, OrthoDisk)):
        vectors, (rhos, etas) = _per_vector(h)
        return vectors, np.array([disk_to_k(r) for r in rhos]), np.array([disk_to_k(r) for r in etas])
    if isinstance(h, (MBounds, OrthoMBounds)):
        vectors, (ms, Ms, ns, Ns) = _per_vector(h)
        ks = np.array([mM_to_k(m, M) for m, M in zip(ms, Ms)])
        return vectors, ks, np.array([mM_to_k(n, N) for n, N in zip(ns, Ns)])
    raise TypeError(f"unknown hypothesis {type(h).__name__}")


def constraints(h: Hypothesis) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The primitive constraints ``((C, k), (B, r))`` whose intersection is ``h``.

    f(t) satisfies ``h`` iff ``k[j]*||f|| <= Re<f, C[j]>`` for every cone
    row C[j] (a unit vector, k[j] >= 0) and ``||f - B[j]|| <= r[j]`` for
    every ball centre B[j].  Rows along e_j come first and rows along i e_j
    after; Re<f, i e> = Im<f, e>.  An argument window lo <= arg f <= hi
    (hi - lo < pi) is the two half-planes (k = 0) with normals i e^{i lo}
    and -i e^{i hi}, and the half-plane about its bisector, which is never
    the binding one inside the window but shuts out the opposite ray of a
    window as narrow as the tolerance.
    """
    dim = hypothesis_dim(h)
    none = np.empty((0, dim), dtype=complex), np.empty(0)
    win = window(h)
    if win is not None:
        lo, hi = win
        normals = np.array([1j, -1j, 1.0]) * np.exp(1j * np.array([lo, hi, 0.5 * (lo + hi)]))
        return (normals[:, None], np.zeros(3)), none
    if isinstance(h, KCond):
        return (h.e[None, :], np.array([1.0 / h.K])), none
    vectors, consts = _per_vector(h)
    if isinstance(h, (MBounds, OrthoMBounds)):
        ms, Ms, ns, Ns = consts
        centres = [(0.5 * (Ms + ms))[:, None] * vectors, (0.5 * (Ns + ns))[:, None] * 1j * vectors]
        return none, (np.concatenate(centres), np.concatenate([0.5 * (Ms - ms), 0.5 * (Ns - ns)]))
    rows = np.concatenate([vectors, 1j * vectors]), np.concatenate(consts)
    return (rows, none) if isinstance(h, (UnitVector, Orthonormal)) else (none, rows)


def window(h: Hypothesis) -> tuple[float, float] | None:
    """``(lo, hi)`` if ``h`` is the argument window lo <= arg f <= hi, else None."""
    if isinstance(h, Cone):
        return h.phi1, h.phi2
    if isinstance(h, Karamata):
        return -h.theta, h.theta
    return None


def hypothesis_dim(h: Hypothesis) -> int:
    """Ambient dimension required of f (angular variants are scalar-only)."""
    return family_form(h)[0].shape[1]


@dataclass(frozen=True)
class ConditionReport:
    """Verdict of a pointwise check: worst slack, where it occurs, nodes checked."""

    holds: bool
    worst_t: float
    worst_margin: float
    checked_points: int


def _ball_slacks(values: np.ndarray, centres: np.ndarray, radii: np.ndarray) -> list[np.ndarray]:
    """r_j - ||f(t) - c_j||, one array per ball; finite wherever ||f(t) - c_j|| < 2^1024.

    Each row and each centre are scaled by the row's power of two, taken over
    the row and all centres (:func:`~bochner_bounds.hilbert.pow2_exponents`),
    so no square of a difference under- or overflows.  The centres are
    scaled one at a time, so memory does not grow with their number.
    """
    exp = pow2_exponents(values, *centres)
    shift = -exp
    x = np.ldexp(np.ascontiguousarray(values, dtype=complex).view(float), shift)
    diff = np.empty_like(x)  # reused: a fresh difference per ball doubles the time
    slacks = []
    with np.errstate(over="ignore"):  # a distance past the float range is inf
        for c, r in zip(np.ascontiguousarray(centres, dtype=complex).view(float), radii):
            np.subtract(x, np.ldexp(c, shift, out=diff), out=diff)
            slacks.append(r - np.ldexp(row_norms(diff), exp[:, 0]))
    return slacks


def _panel_sups(norms: np.ndarray, exp: np.ndarray, interpolation: str) -> tuple[np.ndarray, ...]:
    """Per node, the sup norm of the model on each panel that touches it, in the node's scale.

    Node k's norm is ``norms[k]`` times 2^exp[k].  A linear panel's sup
    norm is its larger end norm, as the norm is convex along a segment; a
    constleft panel holds its left node's value.
    """
    if interpolation == "constleft":
        return (norms,)
    step = exp[1:] - exp[:-1]
    with np.errstate(over="ignore"):  # an end past the float range in the other end's scale
        on_left = np.maximum(norms[1:], np.ldexp(norms[:-1], -step))  # panel (k-1, k) at node k
        on_right = np.maximum(norms[:-1], np.ldexp(norms[1:], step))  # panel (k, k+1) at node k
    return np.concatenate([on_right[:1], on_left]), np.concatenate([on_right, on_left[-1:]])


def _slacks(values: np.ndarray, h: Hypothesis, interpolation: str = "linear") -> np.ndarray:
    """Per-node slack: the least over the cone and ball constraints of ``h``.

    Each row is scaled by its own power of two; a cone slack, homogeneous, is
    measured in its node's scale, with the panel's other end brought into it.
    """
    (cones, ks), (centres, radii) = constraints(h)
    slack = np.inf
    if ks.size:
        (x,), exp = pow2_scaled(values)
        norms = row_norms(x)
        cone = np.min(projections(x, cones) - ks[:, None] * norms, axis=0)
        # a zero sup means f = 0 on the panel, where the slack is 0
        slack = np.minimum.reduce([np.divide(cone, sup, out=np.zeros_like(cone), where=sup > 0.0)
                                   for sup in _panel_sups(norms, exp, interpolation)])
    if radii.size:
        slack = np.minimum(slack, np.minimum.reduce(_ball_slacks(values, centres, radii)))
    return slack


def check(f: GridFunction, h: Hypothesis, tol: float = DEFAULT_CHECK_TOL) -> ConditionReport:
    """Evaluate the hypothesis at every node of ``f``.

    The nodes decide it for the whole interpolated model (see the module
    docstring).  ``holds`` iff the worst slack is >= -tol: cone slacks are
    relative to the sup norm of f on the panel and ball slacks absolute, so
    ``tol`` is relative for the homogeneous classes and absolute for the
    disk and annulus classes.  Every node counts, f(t) = 0 included.  Ties on the
    worst point resolve to the smallest t.  Raises ValueError if ``tol`` is
    not finite and > 0, or if the worst slack is not finite.
    """
    require_tol(tol)
    dim = hypothesis_dim(h)
    if dim != f.dim:
        raise ValueError(f"dimension mismatch: function has d={f.dim}, hypothesis wants d={dim}")
    slack = _slacks(f.values, h, f.interpolation)
    worst = int(np.argmin(slack))
    worst_margin = float(slack[worst])
    if not math.isfinite(worst_margin):  # a ball distance past the float range
        raise ValueError(f"worst_margin: non-finite slack {worst_margin!r}; "
                         "the node values are too large to check")
    return ConditionReport(
        holds=worst_margin >= -tol,
        worst_t=float(f.nodes[worst]),
        worst_margin=worst_margin,
        checked_points=int(slack.size),
    )


def mforms_agree(f: GridFunction, h: MBounds, tol: float = DEFAULT_CHECK_TOL) -> bool:
    """Compare the two annulus formulations pointwise.

    Form (i) is the inner-product sign condition ``Re<M c - f, f - m c> >=
    0``; form (ii) is the check's ball ``||f - (M+m)/2 c|| <= (M-m)/2``
    from :func:`constraints`.  Returns True iff both give the same verdict
    at every node, for c = e and for c = i*e.
    """
    if not isinstance(h, MBounds):
        raise TypeError("mforms_agree requires an MBounds hypothesis")
    if h.e.size != f.dim:
        raise ValueError(f"dimension mismatch: function has d={f.dim}, hypothesis wants d={h.e.size}")
    form_ii = [slack >= -tol for slack in _ball_slacks(f.values, *constraints(h)[1])]
    for j, (c, m, M) in enumerate(((h.e, h.m1, h.M1), (1j * h.e, h.m2, h.M2))):
        form_i = np.sum((M * c - f.values) * np.conj(f.values - m * c), axis=1).real >= -tol
        if not np.array_equal(form_i, form_ii[j]):
            return False
    return True


def _least_cosines(f: GridFunction, rows: np.ndarray) -> np.ndarray:
    """Per row c, the least ``Re<f, c>/||f||`` over the nodes where f is nonzero.

    Raises if there are no such nodes.
    """
    # ratios: scaling each row by its own power of two leaves them as they
    # are, and keeps the norms' squares in range
    (values,), _ = pow2_scaled(f.values)
    norms = row_norms(values)
    mask = norms > 0.0
    if not np.any(mask):
        raise ValueError("function vanishes at every checked point; no constants to estimate")
    return np.min(projections(values[mask], rows) / norms[mask], axis=1)


def estimate_unit_vector(f: GridFunction, e) -> tuple[float, float] | None:
    """Best (largest) constants (k1, k2) for the UnitVector condition on ``f``.

    The least Re<f, c>/||f|| over the nodes with ||f|| > 0, for c = e and
    c = i e (Re<f, i e> = Im<f, e>).  Returns None when either is negative
    (no admissible constants exist).  Raises if f vanishes everywhere.
    """
    e = _require_unit(e, "e")
    k1, k2 = _least_cosines(f, np.array([e, 1j * e])).tolist()
    if k1 < 0.0 or k2 < 0.0:
        return None
    return k1, k2


def estimate_K(f: GridFunction, e) -> float | None:
    """Smallest admissible K for the K-condition, clamped to >= 1.

    1/k for the least k = Re<f, e>/||f|| over the nodes with ||f|| > 0.
    Returns None when k <= 0, in which case no finite K works.
    """
    (k,) = _least_cosines(f, _require_unit(e, "e")[None, :]).tolist()
    if k <= 0.0:
        return None
    return max(1.0, 1.0 / k)


def disk_to_k(eta: float) -> float:
    """UnitVector constant implied by a disk condition of radius eta: sqrt(1 - eta^2)."""
    _require_open01(eta, "eta")
    return math.sqrt(1.0 - eta * eta)


def mM_to_k(m: float, M: float) -> float:
    """UnitVector constant implied by an annulus condition: 2*sqrt(mM)/(M+m)."""
    _require_pair(m, M, "m", "M")
    return 2.0 * math.sqrt(m * M) / (M + m)


def disk_feasible(eta1: float, eta2: float) -> bool:
    """Whether the closed disks around e and i e intersect: eta1 + eta2 >= sqrt(2).

    The centers are sqrt(2) apart in any dimension.  Closed disks touch in a
    single point at equality, so tangency counts as feasible.
    """
    _require_open01(eta1, "eta1")
    _require_open01(eta2, "eta2")
    return eta1 + eta2 >= math.sqrt(2.0)


# --- JSON wire format -------------------------------------------------------

def _wire_key(name: str) -> str:
    return "vectors" if name == "fam" else name


def hypothesis_to_dict(h: Hypothesis) -> dict:
    """Tagged JSON-ready dict, inverse of :func:`hypothesis_from_dict`.

    Keys follow the dataclass fields in order: ``e`` as [re, im] pairs,
    ``fam`` as ``"vectors"`` (a list of such vectors), tuples as lists.
    """
    doc = {"type": tag_of(h)}
    for f in fields(h):
        value = getattr(h, f.name)
        if f.name == "e":
            value = encode_pairs(value)
        elif f.name == "fam":
            value = encode_pairs(value.vectors)
        elif isinstance(value, tuple):
            value = list(value)
        doc[_wire_key(f.name)] = value
    return doc


def _field_from(f: Field, raw):
    if f.name == "e":
        return decode_pairs(raw, 1)
    if f.name == "fam":
        return OrthonormalFamily(vectors=decode_pairs(raw, 2))
    if f.type == "tuple":  # annotations are strings under `from __future__ import annotations`
        return tuple(decode_floats(raw, 1).tolist())
    return float(decode_floats(raw, 0))


_CLASSES = {tag: cls for cls, tag in _TAGS.items()}


def hypothesis_from_dict(d: dict) -> Hypothesis:
    """Parse the tagged wire format; raises ValueError naming the bad field.

    A missing, malformed or wrong-typed field is named alone, as in
    ``K: ...`` or ``type: unknown tag ...`` (the CLI adds the section);
    parameter checks of the class follow.
    """
    if not isinstance(d, dict):
        raise ValueError("expected an object with a field type")
    if "type" not in d:
        raise ValueError("type: missing")
    tag = d["type"]
    cls = _CLASSES.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise ValueError(f"type: unknown tag {tag!r}")
    kwargs = {}
    for f in fields(cls):
        key = _wire_key(f.name)
        if key not in d:
            raise ValueError(f"{key}: missing for type {tag!r}")
        try:
            kwargs[f.name] = _field_from(f, d[key])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{key}: {exc}") from exc
    return cls(**kwargs)
