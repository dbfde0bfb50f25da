"""Finite-dimensional complex Hilbert space primitives.

Vectors are 1-D complex numpy arrays. The inner product is linear in the
first slot and conjugate-linear in the second, i.e. ``inner(u, v) =
sum(u_j * conj(v_j))``, so that ``Re inner(f, 1j*e) == Im inner(f, e)``.

:func:`pow2_scaled` is the package's one scaling rule: every norm of a
function value or an integral is of a row scaled by its own power of two,
scaled back, which is exact in the normal range and keeps squares in range.

The row kernels :func:`row_sums`, :func:`row_norms` and the per-row peak of
:func:`pow2_exponents` are the one place that fixes the order in which the
entries of a row are combined.  They give numpy's own ``axis=-1``
reductions bit for bit, but as a few passes over whole columns instead of
one numpy inner loop per row of 2-8 floats.  The short-axis row reductions
of the package go through them, except four in
:mod:`~bochner_bounds.hypotheses`:

* in ``_slacks``, the cone norms (an ``einsum``) and the projections
  ``x @ c`` (a BLAS dot);
* in ``mforms_agree``, the complex row sums (``np.sum``);
* in ``_least_cosines``, the projections on the rows (a BLAS product).

The two BLAS reductions take the summation order of the BLAS kernel in
use, so their last bits may differ with the CPU, the BLAS build and its
thread count (ROADMAP item 3).
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
    return complex(np.sum(u * np.conj(v)))


_FEW_ROWS = 256  # fewer rows than this: numpy's per-row loops beat one pass per column


def row_sums(s) -> np.ndarray:
    """Sum of each row of the real 2-D array ``s``: ``np.add.reduce(s, axis=-1)`` bit for bit.

    Where a row's entries lie nearer each other in memory than its rows
    (C order, or a view of it such as ``.real``), numpy adds to 0.0 the
    pairwise sum of each row: left to right for fewer than 8 entries, and
    ``((c0+c1)+(c2+c3))+((c4+c5)+(c6+c7))`` for 8.  Otherwise (Fortran
    order) it adds the columns to 0.0 left to right.  Rows of up to 8
    entries are summed here in the same order with one vectorized pass per
    column, where numpy runs one inner loop per row.  Fewer than
    ``_FEW_ROWS`` rows, where those inner loops cost less, and rows of more
    than 8 entries (the package's widest are d = 4 complex entries as 8
    floats) go to numpy.
    """
    s = np.asarray(s)
    rows, n = s.shape
    if rows < _FEW_ROWS or n > 8:
        return np.add.reduce(s, axis=1)
    if n < 8 or abs(s.strides[0]) < abs(s.strides[1]):  # left to right from 0.0
        total = np.zeros(rows)
        for col in s.T:
            total += col
        return total
    pairs = np.add(s[:, 0::2].T, s[:, 1::2].T, order="C")  # c0+c1, c2+c3, c4+c5, c6+c7
    pairs[0::2] += pairs[1::2]
    total = pairs[0] + pairs[2]
    total += 0.0  # a row of -0.0 sums to 0.0
    return total


def row_norms(x) -> np.ndarray:
    """Euclidean norm of each row of the 2-D array ``x``: ``np.linalg.norm(x, axis=-1)`` bit for bit.

    The squared modulus is numpy's ``(x.conj() * x).real``, whose complex
    product may round a*a + b*b once (fused) rather than twice.
    """
    x = np.asarray(x)
    squares = (x.conj() * x).real if np.iscomplexobj(x) else x * x
    return np.sqrt(row_sums(squares))


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
    """Scale row k of every complex array by 2^-e_k (:func:`pow2_exponents`), exactly.

    No square of a scaled entry under- or overflows, and a norm of scaled
    rows times 2^e_k is the norm of the rows.  Returns (scaled arrays, e).
    """
    exp = pow2_exponents(*arrays)
    return [np.ldexp(_floats(x), -exp).view(complex) for x in arrays], exp[..., 0]


def _floats(x) -> np.ndarray:
    """``x`` as a contiguous complex array viewed as floats, C^d as R^2d."""
    return np.ascontiguousarray(x, dtype=complex).view(float)


def _row_peaks(x) -> np.ndarray:
    """Largest |Re| or |Im| of each row of the complex array ``x``, kept as a column."""
    # column-major, the maximum runs over whole columns
    return np.maximum.reduce(np.abs(_floats(x), order="F"), axis=-1, keepdims=True)


def norm(u) -> float:
    """Euclidean norm sqrt(inner(u, u).real), with no squares that under- or overflow.

    ``np.linalg.norm`` of u scaled by :func:`pow2_scaled` as one row, scaled
    back: its bits times a power of two, so ``np.linalg.norm(u)`` bit for
    bit where no square of an entry of u under- or overflows.
    """
    (scaled,), exp = pow2_scaled(as_vector(u))
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
    """Bessel slack ||x||^2 - sum_j |<x, e_j>|^2, nonnegative.

    Computed as ||x - span_projection(x, fam)||^2, to which it is equal, so
    it is a square and never negative, and it vanishes when x lies in the
    span of the family up to rounding of the projection.
    """
    x = as_vector(x)
    return norm(x - span_projection(x, fam)) ** 2
