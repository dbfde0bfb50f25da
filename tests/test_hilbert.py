import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bochner_bounds
from bochner_bounds.hilbert import (
    GramViolation,
    OrthonormalFamily,
    bessel_defect,
    check_orthonormal,
    combinations,
    inner,
    norm,
    pow2_scaled,
    projections,
    row_norms,
    row_sums,
    span_projection,
)
from summation import floats, pairwise_sum, row_norm

finite = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def cvec(draw, d=None, max_d=6):
    if d is None:
        d = draw(st.integers(1, max_d))
    re = draw(st.lists(finite, min_size=d, max_size=d))
    im = draw(st.lists(finite, min_size=d, max_size=d))
    return np.array([complex(a, b) for a, b in zip(re, im)])


@st.composite
def cvec_pair(draw, max_d=6):
    d = draw(st.integers(1, max_d))
    return draw(cvec(d=d)), draw(cvec(d=d))


def _basis(d):
    return np.eye(d, dtype=complex)


def test_inner_trivial_values():
    assert inner([1, 0], [1, 0]) == 1
    assert inner([1j, 0], [1, 0]) == 1j
    assert inner([1, 0], [1j, 0]) == -1j


def test_inner_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        inner([1, 0], [1, 0, 0])


def test_norm_values():
    assert norm([3.0, 4.0]) == 5.0
    assert norm([(1 + 1j) / math.sqrt(2)]) == pytest.approx(1.0, abs=1e-15)
    assert norm([0.0, 0.0, 0.0]) == 0.0


def test_norm_is_numpys_norm_bit_for_bit_in_the_normal_range():
    rng = np.random.default_rng(20261018)
    for d in range(1, 5):
        for _ in range(5000):
            # one magnitude per vector from 1e-100 to 1e100; components up to 1e3 apart
            scale = 10.0 ** rng.uniform(-100, 100)
            parts = rng.normal(size=(2, d)) * 10.0 ** rng.uniform(-3, 0, size=(2, d))
            parts[rng.random(size=(2, d)) < 0.1] = 0.0
            u = scale * (parts[0] + 1j * parts[1])
            # the reference is the package's own order, in plain Python
            want = row_norm(u.tolist())
            assert norm(u) == want, (d, u)
            # moved by a power of two to about 1e-200 or 1e200, where squares under- or overflow
            for target in (-200, 200):
                k = round((target - math.log10(scale)) * math.log2(10))
                scaled = np.ldexp(u.view(float), k).view(complex)
                assert norm(scaled) == math.ldexp(want, k), (d, u, k)


def test_norm_neither_underflows_nor_overflows():
    # np.linalg.norm squares the raw components: 0.04 % high here, inf below
    tiny = 3.724474875e-161
    assert norm([tiny * 1j]) == tiny
    assert norm([1e308, 1e308]) == math.sqrt(2) * 1e308
    assert norm([1e308 + 1e308j]) == math.sqrt(2) * 1e308
    assert norm([5e-324, 0.0]) == 5e-324
    u = np.array([0.3 - 0.4j, 1.2 + 0.0j, -0.7j])
    for k in range(-1000, 1001, 37):
        assert norm(np.ldexp(u.view(float), k).view(complex)) == math.ldexp(norm(u), k), k


def test_check_orthonormal_standard_basis():
    fam = check_orthonormal(_basis(2), tol=1e-12)
    assert isinstance(fam, OrthonormalFamily)
    assert fam.n == 2 and fam.dim == 2


def test_check_orthonormal_duplicate_vector_reports_pair():
    bad = check_orthonormal([[1, 0], [1, 0]], tol=1e-12)
    assert isinstance(bad, GramViolation)
    assert bad.pair == (0, 1)
    assert bad.deviation == pytest.approx(1.0)


def test_check_orthonormal_hadamard_pair():
    # Gram matrix of the normalized (1,1)/(1,-1) pair is the identity exactly
    s = 1.0 / math.sqrt(2.0)
    fam = check_orthonormal([[s, s], [s, -s]], tol=1e-12)
    assert isinstance(fam, OrthonormalFamily)


def test_too_many_vectors_is_an_error():
    with pytest.raises(ValueError, match="impossible"):
        check_orthonormal([[1, 0], [0, 1], [1, 1]])


def test_bessel_defect_in_span_is_zero():
    fam = OrthonormalFamily(_basis(3)[:1])
    assert bessel_defect([1, 0, 0], fam) == pytest.approx(0.0, abs=1e-15)


def test_bessel_defect_orthogonal_complement():
    fam = OrthonormalFamily(_basis(3)[:2])
    assert bessel_defect([0, 0, 1], fam) == pytest.approx(1.0)


def test_bessel_defect_equals_missing_component():
    rng = np.random.default_rng(7)
    x = rng.normal(size=3) + 1j * rng.normal(size=3)
    fam = OrthonormalFamily(_basis(3)[:2])
    assert bessel_defect(x, fam) == pytest.approx(abs(x[2]) ** 2, abs=1e-12)


@given(cvec_pair())
def test_inner_conjugate_symmetry(pair):
    u, v = pair
    assert inner(u, v) == pytest.approx(inner(v, u).conjugate(), abs=1e-15)


@given(cvec_pair())
def test_cauchy_schwarz(pair):
    u, v = pair
    assert abs(inner(u, v)) <= norm(u) * norm(v) + 1e-12


@settings(max_examples=60)
@given(st.integers(1, 8), st.integers(0, 2 ** 31), st.booleans(), st.data())
def test_bessel_nonnegative_and_matches_projection_residual(d, seed, in_span, data):
    n = data.draw(st.integers(1, d))
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(d, n)) + 1j * rng.normal(size=(d, n))
    q, _ = np.linalg.qr(raw)
    fam = check_orthonormal(q.T[:n], tol=1e-10)
    assert isinstance(fam, OrthonormalFamily)
    x = data.draw(cvec(d=d))
    if in_span:  # the defect is 0 up to rounding here, and must not come out negative
        x = span_projection(x, fam)
    defect = bessel_defect(x, fam)
    assert defect >= 0
    residual = norm(np.asarray(x) - span_projection(x, fam)) ** 2
    assert defect == pytest.approx(residual, abs=1e-10)


# Row kernels: the pairwise order of row_sums in plain Python is the reference,
# bit for bit, and numpy's reduction along a contiguous axis gives it too.

def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


def _rows(rng, rows: int, width: int, complex_: bool) -> np.ndarray:
    """Rows with spread magnitudes, some of them zero or near 2^-1000 and 2^1000."""
    def part():
        return np.ldexp(rng.normal(size=(rows, width)), rng.integers(-40, 1, size=(rows, width)))

    x = part() + 1j * part() if complex_ else part()
    pick = rng.random(rows)
    x[pick < 0.05] = 0.0
    x[(0.05 <= pick) & (pick < 0.1)] = -0.0
    x[(0.1 <= pick) & (pick < 0.15)] *= 2.0 ** -1000
    x[(0.15 <= pick) & (pick < 0.2)] *= 2.0 ** 1000  # squares overflow, sums do not
    return x


# no rows, one row, and a few up to a few hundred
ROW_COUNTS = (0, 1, 17, 255, 256, 300)


def _layouts(x: np.ndarray) -> dict[str, np.ndarray]:
    """x in C order, reversed along its rows, and in Fortran order; the layout never changes a sum."""
    return {"C": x, "reversed": x[:, ::-1], "Fortran": np.asfortranarray(x)}


def _want_sums(x: np.ndarray) -> np.ndarray:
    return np.array([pairwise_sum(row) for row in x.tolist()]).reshape(x.shape[:-1])


# the kernels sum rows of up to 8 entries in column passes and wider ones through numpy
@pytest.mark.parametrize("width", range(1, 17))
def test_row_kernels_are_numpys_axis_reductions_bit_for_bit(width):
    rng = np.random.default_rng(width)
    for rows in ROW_COUNTS:
        for complex_ in (False, True):
            for layout, x in _layouts(_rows(rng, rows, width, complex_)).items():
                with np.errstate(over="ignore"):  # inf on both sides
                    got = row_norms(x)
                want = np.array([row_norm(row) for row in x.tolist()]).reshape(x.shape[:-1])
                assert np.array_equal(_bits(got), _bits(want)), (rows, layout)
                if complex_:  # the float view, 2 * width entries per row
                    x = np.ascontiguousarray(x).view(float)
                want = _want_sums(x)
                assert np.array_equal(_bits(row_sums(x)), _bits(want)), (rows, layout)
                contiguous = np.add.reduce(np.ascontiguousarray(x), axis=-1)
                assert np.array_equal(_bits(contiguous), _bits(want)), (rows, layout)


@settings(max_examples=40)
@given(st.integers(256, 700), st.integers(0, 12), st.integers(0, 2 ** 31))
def test_row_sums_of_signed_zeros(rows, width, seed):
    rng = np.random.default_rng(seed)
    s = _rows(rng, rows, width, False)
    s[rng.random(rows) < 0.2] = -0.0  # a row of -0.0 sums to +0.0
    for x in _layouts(s).values():
        assert np.array_equal(_bits(row_sums(x)), _bits(_want_sums(x)))


@pytest.mark.parametrize("n", (0, 1, 7, 8, 9, 127, 128, 129, 1000, 20_001))
def test_row_sums_of_long_rows_are_pairwise(n):
    rng = np.random.default_rng(n)
    x = _rows(rng, 3, n, False)
    for y in (x, x.T.copy().T, x[:, ::-1]):  # C order, Fortran order, reversed
        assert np.array_equal(_bits(row_sums(y)), _bits(_want_sums(y)))
    assert np.array_equal(_bits(row_sums(x[0])), _bits(pairwise_sum(x[0].tolist())))  # one 1-D row


def test_projections_and_combinations_follow_the_row_sums():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))
    rows = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    want = [[pairwise_sum(a * b for a, b in zip(floats(xk), floats(c))) for xk in x.tolist()]
            for c in rows.tolist()]
    assert np.array_equal(_bits(projections(x, rows)), _bits(want))
    re, im = rng.normal(size=(40, 2)), rng.normal(size=(40, 2))
    got = combinations(re, im, rows)
    for k in range(40):
        for i in range(3):
            c = rows[:, i]
            want_re = pairwise_sum(re[k, j] * c[j].real - im[k, j] * c[j].imag for j in range(2))
            want_im = pairwise_sum(re[k, j] * c[j].imag + im[k, j] * c[j].real for j in range(2))
            assert np.array_equal(_bits([got[k, i].real, got[k, i].imag]), _bits([want_re, want_im])), (k, i)


def _reference_pow2_scaled(*arrays):
    views = [np.ascontiguousarray(x, dtype=complex).view(float) for x in arrays]
    peak = np.abs(views[0]).max(axis=-1, keepdims=True)
    for v in views[1:]:
        peak = np.maximum(peak, np.abs(v).max(axis=-1, keepdims=True))
    exp = np.frexp(peak)[1]
    return [np.ldexp(v, -exp).view(complex) for v in views], exp[..., 0]


@pytest.mark.parametrize("rows", (1, 17, 300))
@pytest.mark.parametrize("d", (1, 2, 3, 4, 8))
def test_pow2_scaled_takes_the_frexp_of_each_rows_peak(rows, d):
    rng = np.random.default_rng(100 * rows + d)
    a, b = _rows(rng, rows, d, True), _rows(rng, rows, d, True)
    for arrays in ((a, b), (a, b[0])):  # two sets of rows, and rows against one vector
        (sa, sb), exp = pow2_scaled(*arrays)
        (ra, rb), rexp = _reference_pow2_scaled(*arrays)
        assert np.array_equal(exp, rexp)
        assert np.array_equal(_bits(sa.view(float)), _bits(ra.view(float)))
        assert np.array_equal(_bits(sb.view(float)), _bits(rb.view(float)))
    whole = a.ravel()  # a 1-D array is one row: all of it at one scale
    (scaled,), exp = pow2_scaled(whole)
    assert exp == np.frexp(np.abs(whole.view(float)).max())[1]
    assert np.array_equal(_bits(scaled.view(float)), _bits(np.ldexp(whole.view(float), -exp)))


# products and reductions that sum in an order of their own, not that of row_sums: BLAS's
# or numpy's, as functions of np or as array methods
SUMS = {"dot", "sum", "mean", "conj", "conjugate"}  # np.sum and x.sum() alike
NUMPY_SUMS = {"einsum", "matmul", "vdot", "inner", "tensordot", "linalg"}


def test_the_package_sums_only_through_the_row_kernels():
    found = []
    for path in sorted(Path(bochner_bounds.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append((path.name, node.lineno, "@"))
            elif isinstance(node, ast.Attribute) and (
                    node.attr in SUMS
                    or isinstance(node.value, ast.Name) and node.value.id == "np"
                    and node.attr in NUMPY_SUMS):
                found.append((path.name, node.lineno, node.attr))
    assert found == []
