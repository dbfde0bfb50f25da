"""Finite-dimensional complex Hilbert space primitives.

Vectors are 1-D complex numpy arrays. The inner product is linear in the
first slot and conjugate-linear in the second, i.e. ``inner(u, v) =
sum(u_j * conj(v_j))``, so that ``Re inner(f, 1j*e) == Im inner(f, e)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "as_vector",
    "inner",
    "norm",
    "pow2_scaled",
    "pow2_scaled_whole",
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
    return complex(np.sum(u * np.conj(v)))


def pow2_scaled(*arrays) -> tuple[list[np.ndarray], np.ndarray]:
    """Scale row k of every complex array by one power of two 2^-e_k, exactly.

    e_k puts the largest |Re| or |Im| of row k, over all ``arrays``, in
    [0.5, 1) (e_k = 0 for a zero row), so no square of a scaled entry
    under- or overflows, and a norm of scaled rows times 2^e_k is the norm
    of the rows.  A 1-D array is one row.  Returns (scaled arrays, e).
    """
    views = [np.ascontiguousarray(x, dtype=complex).view(float) for x in arrays]
    peak = np.abs(views[0]).max(axis=-1, keepdims=True)
    for v in views[1:]:
        np.maximum(peak, np.abs(v).max(axis=-1, keepdims=True), out=peak)
    exp = np.frexp(peak)[1]
    return [np.ldexp(v, -exp).view(complex) for v in views], exp[..., 0]


def pow2_scaled_whole(x) -> tuple[np.ndarray, int]:
    """All of ``x`` scaled by one power of two 2^-e: :func:`pow2_scaled` of x as one row.

    The scaling is exact for every entry within 2^1021 of the largest, so
    ratios of such entries stay as they are.  Returns (scaled array of x's
    shape, e).
    """
    x = np.asarray(x)
    (scaled,), exp = pow2_scaled(x.reshape(1, -1))
    return scaled.reshape(x.shape), int(exp[0])


def norm(u) -> float:
    """Euclidean norm sqrt(inner(u, u).real), with no squares that under- or overflow.

    ``np.linalg.norm`` of u scaled by :func:`pow2_scaled_whole`, scaled back: its
    bits times a power of two, so ``np.linalg.norm(u)`` bit for bit where
    no square of an entry of u under- or overflows.
    """
    scaled, exp = pow2_scaled_whole(as_vector(u))
    with np.errstate(over="ignore"):  # a norm past the float range is inf
        return float(np.ldexp(np.linalg.norm(scaled), exp))


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
        gram = m @ m.conj().T
        dev = np.abs(gram - np.eye(n))
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
    coeffs = fam.vectors.conj() @ x
    return coeffs @ fam.vectors


def bessel_defect(x, fam: OrthonormalFamily) -> float:
    """Bessel slack ||x||^2 - sum_j |<x, e_j>|^2.

    Equals ||x - span_projection(x, fam)||^2, hence is nonnegative and
    vanishes exactly when x lies in the span of the family.
    """
    x = as_vector(x)
    if x.size != fam.dim:
        raise ValueError(f"dimension mismatch: vector has {x.size}, family has {fam.dim}")
    coeffs = fam.vectors.conj() @ x
    return float(np.sum(np.abs(x) ** 2) - np.sum(np.abs(coeffs) ** 2))
