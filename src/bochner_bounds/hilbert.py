"""Finite-dimensional complex Hilbert space primitives.

Vectors are 1-D complex numpy arrays. The inner product is linear in the
first slot and conjugate-linear in the second, i.e. ``inner(u, v) =
sum(u_j * conj(v_j))``, so that ``Re inner(f, 1j*e) == Im inner(f, e)``.

:func:`pow2_scaled` is the package's one scaling rule: every norm of a
function value or an integral is of a row scaled by its own power of two,
scaled back, which is exact in the normal range and keeps squares in range.

:func:`row_sums` is the package's one summation order.  Every sum that
feeds a report, and every other sum in the package, goes through it, in
real arithmetic on the float view of C^d as R^2d, with no complex product
and no BLAS, so neither a report byte nor a verdict depends on the CPU, the
BLAS build or its thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "as_vector",
    "inner",
    "norm",
    "row_sums",
    "row_norms",
    "projections",
    "combinations",
    "pow2_exponents",
    "pow2_scaled",
    "OrthonormalFamily",
    "GramViolation",
    "check_orthonormal",
    "span_projection",
    "bessel_defect",
]


def as_vector(x) -> np.ndarray:
    """Coerce ``x`` to a read-only 1-D complex array of length >= 1."""
    v = np.array(x, dtype=complex)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a 1-D vector with at least one entry, got shape {v.shape}")
    v.setflags(write=False)
    return v


def inner(u, v) -> complex:
    """Inner product sum(u_j * conj(v_j)); conjugate-linear in ``v``."""
    u = as_vector(u)
    v = as_vector(v)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.size} vs {v.size}")
    return complex(*projections(u, np.array([v, 1j * v])))  # Im<u, v> = Re<u, i v>


def row_sums(s) -> np.ndarray:
    """Sum along the last axis of the real array ``s``, in the pairwise order.

    The pairwise order of n terms: left to right for n < 8; for n <= 128,
    eight running sums (term i into sum i mod 8) combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the last n mod 8 terms
    left to right; for more, the sums of the first n2 terms (n/2 rounded
    down to a multiple of 8) and of the rest, added.  The total is added to
    0.0, so it is never -0.0.  That is ``np.add.reduce`` along a contiguous
    axis, which sums rows of more than 8 terms; shorter rows are summed with
    one pass per column, contiguous in a Fortran layout.  No layout changes
    the bits.
    """
    s = np.asarray(s)
    n = s.shape[-1]
    if n > 8:
        return np.add.reduce(np.ascontiguousarray(s), axis=-1)
    c = np.moveaxis(s, -1, 0)
    if n == 8:
        total = (c[0] + c[1]) + (c[2] + c[3])
        total += (c[4] + c[5]) + (c[6] + c[7])
        total += 0.0
        return total
    total = np.zeros(s.shape[:-1])
    for col in c:
        total += col
    return total


def row_norms(x) -> np.ndarray:
    """Euclidean norm along the last axis of ``x``: the root of the :func:`row_sums` of its squares.

    A complex ``x`` is taken as its float view, C^d as R^2d, so the squares
    are ``a*a`` and ``b*b`` of each entry a + ib, in that order.
    """
    x = _floats(x)
    return np.sqrt(row_sums(x * x))


def projections(x, rows) -> np.ndarray:
    """``Re<x_k, c_j>`` for each row c_j of the complex ``rows`` and x_k of ``x``, as one row per c_j.

    ``x`` is complex or its float view, C^d as R^2d, in any layout; Re<x, c>
    is the dot product of the float views, summed by :func:`row_sums`.
    """
    x = _floats(x)
    return np.array([row_sums(x * c) for c in _floats(rows)])


def combinations(re, im, rows) -> np.ndarray:
    """``sum_j (re[k, j] + i im[k, j]) rows[j]`` for each k, in real arithmetic.

    The real and imaginary parts of each product are formed apart, and each
    is summed over j by :func:`row_sums`.
    """
    v = _floats(rows)
    vr, vi = v[:, 0::2], v[:, 1::2]
    re, im = np.asarray(re, dtype=float)[..., None], np.asarray(im, dtype=float)[..., None]
    parts = [re * vr - im * vi, re * vi + im * vr]  # (k, j, entry)
    return np.stack([row_sums(np.swapaxes(p, -2, -1)) for p in parts], axis=-1).view(complex)[..., 0]


def pow2_exponents(*arrays) -> np.ndarray:
    """Per row k, the e_k putting the largest |Re| or |Im| of row k, over all ``arrays``, in [0.5, 1).

    e_k = 0 for a zero row, and a 1-D array is one row.  This is the one
    place that picks the scale.  Returns e as a column, as ``np.ldexp`` takes it.
    """
    peak = _row_peaks(arrays[0])
    for x in arrays[1:]:
        np.maximum(peak, _row_peaks(x), out=peak)
    return np.frexp(peak)[1]


def pow2_scaled(*arrays) -> tuple[list[np.ndarray], np.ndarray]:
    """Scale row k of every complex array by 2^-e_k (:func:`pow2_exponents`), exactly, as floats.

    No square of a scaled entry under- or overflows, and a norm of scaled
    rows times 2^e_k is the norm of the rows.  Returns (the scaled arrays as
    floats, C^d as R^2d, in Fortran layout, e).
    """
    # Fortran layout: the peaks, the scaling and the row kernels after them run along whole columns
    floats = [np.asfortranarray(_floats(np.asarray(x, dtype=complex))) for x in arrays]
    exp = pow2_exponents(*floats)
    return [np.ldexp(x, -exp) for x in floats], exp[..., 0]


def _floats(x) -> np.ndarray:
    """A complex ``x`` as a contiguous array viewed as floats, C^d as R^2d; a real ``x`` as it is."""
    x = np.asarray(x)
    return np.ascontiguousarray(x).view(float) if np.iscomplexobj(x) else x


def _row_peaks(x) -> np.ndarray:
    """Largest |Re| or |Im| of each row of the complex array ``x`` (or its float view), kept as a column."""
    # column-major, the maximum runs over whole columns
    return np.maximum.reduce(np.abs(_floats(x), order="F"), axis=-1, keepdims=True)


def norm(u) -> float:
    """Euclidean norm sqrt(inner(u, u).real), with no squares that under- or overflow.

    :func:`row_norms` of u scaled by :func:`pow2_scaled` as one row, scaled
    back: ``row_norms(u)`` bit for bit where no square of an entry of u
    under- or overflows.
    """
    (scaled,), exp = pow2_scaled(as_vector(u))
    with np.errstate(over="ignore"):  # a norm past the float range is inf
        return float(np.ldexp(row_norms(scaled), exp))


@dataclass(frozen=True, eq=False)
class GramViolation:
    """Worst deviation of a Gram matrix from the identity."""

    pair: tuple[int, int]
    deviation: float
    tol: float


class _NotOrthonormal(ValueError):
    """A Gram matrix off the identity, with its :class:`GramViolation`."""

    def __init__(self, violation: GramViolation):
        j, k = violation.pair
        super().__init__(f"not orthonormal: |<e_{j}, e_{k}> - delta| = "
                         f"{violation.deviation:.3e} > tol {violation.tol:.1e}")
        self.violation = violation


@dataclass(frozen=True, eq=False)
class OrthonormalFamily:
    """n vectors in C^d (rows of ``vectors``) with Gram matrix ~ identity.

    Construction validates |<e_j, e_k> - delta_jk| <= tol for all j, k and
    raises ValueError otherwise; use :func:`check_orthonormal` to obtain a
    violation report instead of an exception.
    """

    vectors: np.ndarray
    tol: float = 1e-12

    def __post_init__(self):
        m = np.array(self.vectors, dtype=complex)
        if m.ndim != 2 or m.shape[0] < 1:
            raise ValueError("orthonormal family needs a nonempty sequence of equal-length vectors")
        n, d = m.shape
        if n > d:
            raise ValueError(f"orthonormality impossible: {n} vectors in dimension {d}")
        m.setflags(write=False)
        object.__setattr__(self, "vectors", m)
        # Re<e_j, e_k> and Im<e_j, e_k> = Re<e_j, i e_k>, by the row kernels
        dev = np.hypot(projections(m, m) - np.eye(n), projections(m, 1j * m).T)
        j, k = np.unravel_index(int(np.argmax(dev)), dev.shape)
        if not dev[j, k] <= self.tol:  # also catches NaN entries
            raise _NotOrthonormal(GramViolation((int(j), int(k)), float(dev[j, k]), self.tol))

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def check_orthonormal(vectors, tol: float = 1e-12) -> OrthonormalFamily | GramViolation:
    """Accept a sequence of vectors as an orthonormal family, or report why not.

    Accepts iff every Gram entry is within ``tol`` of the identity; on
    rejection the report names the worst (j, k) pair and its deviation.
    Raises ValueError when orthonormality is structurally impossible (more
    vectors than dimensions, ragged input).
    """
    try:
        return OrthonormalFamily(vectors, tol)
    except _NotOrthonormal as exc:
        return exc.violation


def span_projection(x, fam: OrthonormalFamily) -> np.ndarray:
    """Projection of ``x`` onto span(fam): sum_j <x, e_j> e_j."""
    x = as_vector(x)
    if x.size != fam.dim:
        raise ValueError(f"dimension mismatch: vector has {x.size}, family has {fam.dim}")
    v = fam.vectors
    return combinations(projections(x, v), projections(x, 1j * v), v)


def bessel_defect(x, fam: OrthonormalFamily) -> float:
    """Bessel slack ||x||^2 - sum_j |<x, e_j>|^2, nonnegative.

    Computed as ||x - span_projection(x, fam)||^2, to which it is equal, so
    it is a square and never negative, and it vanishes when x lies in the
    span of the family up to rounding of the projection.
    """
    x = as_vector(x)
    return norm(x - span_projection(x, fam)) ** 2
