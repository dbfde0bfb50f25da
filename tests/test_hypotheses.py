import cmath
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bochner_bounds.bounds import bound_report_to_dict, certify
from bochner_bounds.gridfn import GridFunction, Interval, QuadratureRule, evaluate_many, sample
from bochner_bounds.hilbert import OrthonormalFamily
from bochner_bounds.hypotheses import (
    Cone,
    Disk,
    Karamata,
    KCond,
    MBounds,
    Orthonormal,
    OrthoDisk,
    OrthoMBounds,
    UnitVector,
    DEFAULT_CHECK_TOL,
    check,
    constraints,
    disk_feasible,
    disk_to_k,
    estimate_K,
    estimate_unit_vector,
    hypothesis_from_dict,
    hypothesis_to_dict,
    mM_to_k,
    mforms_agree,
)
from bochner_bounds.hypotheses import _ball_slacks, _slacks
from bochner_bounds.witness import FamilySpec, generate
from summation import row_norm

E1 = np.array([1.0 + 0j])
E2 = np.eye(2, dtype=complex)


def constant(value, n=5, a=0.0, b=1.0) -> GridFunction:
    vals = np.tile(np.atleast_1d(np.asarray(value, dtype=complex)), (n, 1))
    return GridFunction(Interval(a, b), np.linspace(a, b, n), vals)


def circle_arc(a, b, n=65) -> GridFunction:
    return sample(lambda t: cmath.exp(1j * t), Interval(a, b), n)


def ball_function(rng, center, radius, n=9) -> GridFunction:
    d = center.size
    g = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    g /= np.linalg.norm(g, axis=1)[:, None]
    r = radius * rng.uniform(0, 1, n) ** (1.0 / (2 * d))
    return GridFunction(Interval(0, 1), np.linspace(0, 1, n), center + r[:, None] * g)


# --- check ------------------------------------------------------------------

def test_unit_vector_exact_constant():
    report = check(constant(E1), UnitVector(E1, 1.0, 0.0))
    assert report.holds
    assert report.worst_margin == pytest.approx(0.0, abs=1e-15)


def test_unit_vector_failure_names_leftmost_point():
    report = check(constant(-E1, a=2.0, b=3.0), UnitVector(E1, 0.5, 0.0))
    assert not report.holds
    assert report.worst_margin == pytest.approx(-1.5)
    assert report.worst_t == 2.0


def test_disk_holds_for_center_of_lens():
    report = check(constant([(1 + 1j) / 2]), Disk(E1, 0.9, 0.9))
    assert report.holds
    assert report.worst_margin == pytest.approx(0.9 - math.sqrt(2) / 2, abs=1e-12)


def test_cone_on_its_own_arc():
    report = check(circle_arc(math.pi / 6, math.pi / 3), Cone(math.pi / 6, math.pi / 3))
    assert report.holds
    assert report.worst_margin == pytest.approx(0.0, abs=1e-12)


def test_cone_rejects_left_halfplane():
    z = -1.0 + 0.1j
    report = check(constant([z]), Cone(0.1, 0.5))
    assert not report.holds
    # the half-plane about the window's bisector 0.3 binds: Re<f, e^{0.3i}> / ||f||
    assert report.worst_margin == pytest.approx((z * cmath.exp(-0.3j)).real / abs(z), rel=1e-12)


def test_cone_counts_zero_samples():
    nodes = np.linspace(0, 1, 5)
    vals = np.full((5, 1), 1.0 + 1.0j)
    vals[2] = 0.0
    f = GridFunction(Interval(0, 1), nodes, vals)
    report = check(f, Cone(0.2, math.pi / 4 + 0.2))
    assert report.holds
    # every node is checked, and the zero node has slack 0
    assert report.checked_points == 5
    assert report.worst_margin == 0.0 and report.worst_t == 0.5


def test_karamata_symmetric_window():
    f = sample(lambda t: cmath.exp(1j * (t - 0.5)), Interval(0.0, 1.0), 33)
    assert check(f, Karamata(0.51)).holds
    assert not check(f, Karamata(0.4)).holds


def test_kcond_margin():
    report = check(constant(E1), KCond(E1, 2.0))
    assert report.holds
    # (Re<f, e> - ||f|| / K) / max ||f||
    assert report.worst_margin == pytest.approx(0.5)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError, match="dimension mismatch"):
        check(constant([1.0, 0.0]), UnitVector(E1, 0.5, 0.0))


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-9])
def test_check_refuses_a_tolerance_that_is_not_finite_and_positive(tol):
    # a violated hypothesis: an infinite tolerance would pass it
    with pytest.raises(ValueError, match=rf"^tol: must be finite and > 0, got {tol!r}$"):
        check(constant([-1.0]), UnitVector(E1, 0.6, 0.8), tol=tol)


def test_zero_function_holds_with_margin_0():
    fam = OrthonormalFamily(E1[None, :])
    for h in (Cone(0.1, 0.5), Karamata(0.7), KCond(E1, 2.0), UnitVector(E1, 0.6, 0.8),
              Orthonormal(fam, ks=(0.3,), hs=(0.4,))):
        report = check(constant([0.0]), h)
        assert report.holds
        assert (report.worst_margin, report.worst_t, report.checked_points) == (0.0, 0.0, 5)


def test_orthonormal_variant_collapses_to_unit_vector():
    f = constant([0.6 + 0.8j, 0.0])
    fam = OrthonormalFamily(E2[:1])
    r1 = check(f, Orthonormal(fam, ks=(0.6,), hs=(0.8,)))
    r2 = check(f, UnitVector(E2[0], 0.6, 0.8))
    assert r1.holds and r2.holds
    assert r1.worst_margin == pytest.approx(r2.worst_margin, abs=1e-15)


def test_ortho_disk_inner_point():
    fam = OrthonormalFamily(E2)
    center = 0.25 * (1 + 1j) * (E2[0] + E2[1])
    report = check(constant(center), OrthoDisk(fam, rhos=(0.9, 0.9), etas=(0.9, 0.9)))
    assert report.holds
    assert report.worst_margin == pytest.approx(0.9 - math.sqrt(3) / 2, abs=1e-12)


def test_ortho_mbounds_midpoint_direction():
    fam = OrthonormalFamily(E2)
    mid = 2.025
    center = (mid / 4.0) * (1 + 1j) * (E2[0] + E2[1])
    h = OrthoMBounds(fam, ms=(0.05, 0.05), Ms=(4.0, 4.0), ns=(0.05, 0.05), Ns=(4.0, 4.0))
    assert check(constant(center), h).holds


# --- the two annulus forms --------------------------------------------------

def test_mforms_agree_on_the_textbook_points():
    # f = e satisfies the first condition in both forms, f = 3e fails both;
    # either way the two formulations must agree pointwise
    h = MBounds(E1, 0.5, 2.0, 0.5, 2.0)
    assert mforms_agree(constant(E1), h)
    assert mforms_agree(constant(3.0 * E1), h)


def test_mforms_agree_when_the_joint_condition_holds():
    # midpoint of the two ball centers lies in both balls for m=0.2, M=3
    h = MBounds(E1, 0.2, 3.0, 0.2, 3.0)
    f = constant([0.8 * (1 + 1j)])
    assert mforms_agree(f, h)
    assert check(f, h).holds


def test_mforms_agree_when_both_fail():
    h = MBounds(E1, 0.5, 2.0, 0.5, 2.0)
    f = constant([3.0 * (1 + 1j)])
    assert mforms_agree(f, h)
    assert not check(f, h).holds


def test_mforms_agree_on_random_points():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3):
        e = np.zeros(d, dtype=complex)
        e[0] = 1.0
        h = MBounds(e, 0.2, 3.0, 0.2, 3.0)
        for _ in range(25):
            center = rng.uniform(0.5, 2.0) * (e + 1j * e) / 2.0
            f = ball_function(rng, center, rng.uniform(0.1, 2.0), n=9)
            assert mforms_agree(f, h)


# --- estimators and derived constants ---------------------------------------

def test_estimate_unit_vector_recovers_direction():
    f = constant((0.6 + 0.8j) * E1)
    k1, k2 = estimate_unit_vector(f, E1)
    assert k1 == pytest.approx(0.6, abs=1e-12)
    assert k2 == pytest.approx(0.8, abs=1e-12)


def test_estimate_unit_vector_of_e_itself():
    k1, k2 = estimate_unit_vector(constant(E1), E1)
    assert (k1, k2) == (pytest.approx(1.0), pytest.approx(0.0))


def test_estimate_unit_vector_infeasible():
    assert estimate_unit_vector(constant(-E1), E1) is None


def test_estimate_K_trivial_and_arc():
    assert estimate_K(constant(E1), E1) == pytest.approx(1.0)
    f = circle_arc(0.0, math.pi / 3, 65)
    assert estimate_K(f, E1) == pytest.approx(2.0, rel=1e-12)


def test_estimate_K_infeasible_for_orthogonal_direction():
    assert estimate_K(constant(1j * E1), E1) is None


@pytest.mark.parametrize("seed", range(20))
def test_estimators_are_unchanged_by_powers_of_two(seed):
    rng = np.random.default_rng(seed)
    n, d = 9, int(rng.integers(1, 4))
    e = rng.normal(size=d) + 1j * rng.normal(size=d)
    e /= np.linalg.norm(e)
    # inside the quarter plane Re, Im >= 0 about e, plus a small spread
    phase = np.exp(1j * rng.uniform(0.2, 1.3, n))
    values = rng.uniform(0.5, 2.0, (n, 1)) * phase[:, None] * e + 0.05 * rng.normal(size=(n, d))
    values[rng.uniform(size=n) < 0.2] = 0.0
    nodes = np.linspace(0.0, 1.0, n)
    f, tiny = (GridFunction(Interval(0, 1), nodes, v)
               for v in (values, np.ldexp(values.view(float), -600).view(complex)))
    assert estimate_unit_vector(f, e) == estimate_unit_vector(tiny, e)
    assert estimate_K(f, e) == estimate_K(tiny, e)


def test_estimators_of_a_constant_whose_squares_underflow():
    # the squares of 2^-565 and 2^-997 fall below 2^-1074 and underflow; those of
    # 2^-500 do not; powers of two apart, the three scale to the same values
    normal = constant(2.0**-500 * (0.6 + 0.8j) * E1)
    for scale in (2.0**-565, 2.0**-997):
        f = constant(scale * (0.6 + 0.8j) * E1)
        assert estimate_unit_vector(f, E1) == estimate_unit_vector(normal, E1)
        assert estimate_K(f, E1) == estimate_K(normal, E1)


def test_estimators_see_a_node_400_decades_below_the_largest():
    # the middle node has Re<f, e> = 0 and Im<f, e> = -||f||: no k2 >= 0 and no finite K fit
    f = GridFunction(Interval(0, 1), np.linspace(0, 1, 3), np.array([[1e200], [-1e-200j], [1e200]]))
    assert estimate_unit_vector(f, E1) is None
    assert estimate_K(f, E1) is None


def test_disk_to_k_values():
    assert disk_to_k(0.6) == pytest.approx(0.8)
    assert disk_to_k(1e-9) == pytest.approx(1.0)
    assert disk_to_k(0.9) == pytest.approx(math.sqrt(0.19), abs=1e-12)
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            disk_to_k(bad)


def test_mM_to_k_values():
    assert mM_to_k(2.0, 2.0) == pytest.approx(1.0)
    assert mM_to_k(0.1, 10.0) == pytest.approx(2.0 / 10.1, abs=1e-12)
    assert mM_to_k(1.0, 4.0) == pytest.approx(0.8)
    with pytest.raises(ValueError):
        mM_to_k(4.0, 1.0)
    with pytest.raises(ValueError):
        mM_to_k(0.0, 1.0)


def test_disk_feasible_threshold():
    assert disk_feasible(0.9, 0.9)
    assert not disk_feasible(0.6, 0.6)
    assert disk_feasible(math.sqrt(2) / 2, math.sqrt(2) / 2)


# --- implications between hypothesis classes --------------------------------

def _random_disk_function(rng, e, eta1, eta2, n=9) -> GridFunction:
    d = e.size
    out = np.empty((n, d), dtype=complex)
    got = 0
    while got < n:
        cand = e + eta1 * (rng.normal(size=(64, d)) + 1j * rng.normal(size=(64, d))) * 0.2
        keep = (np.linalg.norm(cand - e, axis=1) <= eta1) & (
            np.linalg.norm(cand - 1j * e, axis=1) <= eta2
        )
        take = min(int(keep.sum()), n - got)
        out[got : got + take] = cand[keep][:take]
        got += take
    return GridFunction(Interval(0, 1), np.linspace(0, 1, n), out)


def test_disk_condition_implies_derived_unit_vector():
    rng = np.random.default_rng(5)
    eta1, eta2 = 0.9, 0.85
    for d in (1, 2):
        e = np.zeros(d, dtype=complex)
        e[0] = 1.0
        for _ in range(20):
            f = _random_disk_function(rng, e, eta1, eta2)
            assert check(f, Disk(e, eta1, eta2)).holds
            implied = UnitVector(e, disk_to_k(eta1), disk_to_k(eta2))
            assert check(f, implied, tol=1e-9).holds


def test_annulus_condition_implies_derived_unit_vector():
    rng = np.random.default_rng(6)
    m, M = 0.2, 3.0
    e = E1
    h = MBounds(e, m, M, m, M)
    implied = UnitVector(e, mM_to_k(m, M), mM_to_k(m, M))
    # samples stay within 0.233 of the lens midpoint, inside both balls
    hits = 0
    for _ in range(200):
        center = (m + M) / 2.0 * (e + 1j * e) / 2.0
        f = ball_function(rng, center, (M - m) / 12.0, n=9)
        if check(f, h).holds:
            hits += 1
            assert check(f, implied, tol=1e-9).holds
    assert hits == 200


def test_estimator_dominates_given_constants():
    rng = np.random.default_rng(7)
    e = np.array([1.0 + 0j, 0.0 + 0j])
    k1, k2 = 0.3, 0.4
    for _ in range(20):
        alpha = rng.uniform(k1, 0.7, 9)
        beta = rng.uniform(k2, 0.7, 9)
        vals = np.stack([alpha + 1j * beta, 0.1 * rng.normal(size=9) + 0j], axis=1)
        scale = np.sqrt(np.sum(np.abs(vals) ** 2, axis=1))
        vals /= scale[:, None]
        f = GridFunction(Interval(0, 1), np.linspace(0, 1, 9), vals)
        if not check(f, UnitVector(e, k1, k2)).holds:
            continue
        est = estimate_unit_vector(f, e)
        assert est is not None
        assert est[0] >= k1 - 1e-9
        assert est[1] >= k2 - 1e-9


def test_cone_bridge_to_unit_vector():
    phi1, phi2 = 0.3, 1.1
    rng = np.random.default_rng(8)
    for _ in range(20):
        phases = rng.uniform(phi1, phi2, 17)
        radii = rng.uniform(0.5, 1.5, 17)
        f = GridFunction(
            Interval(0, 1), np.linspace(0, 1, 17), (radii * np.exp(1j * phases))[:, None]
        )
        assert check(f, Cone(phi1, phi2)).holds
        assert check(f, UnitVector(E1, math.cos(phi2), math.sin(phi1)), tol=1e-9).holds


# --- the node check decides the whole interpolated model --------------------

TAGS = ("k_cond", "karamata", "cone", "unit_vector", "disk", "m_bounds",
        "orthonormal", "ortho_disk", "ortho_m_bounds")


def _random_class(rng, tag, d):
    """A hypothesis of class ``tag`` in C^d and a point near its set."""
    if tag == "karamata":
        h = Karamata(rng.uniform(0.05, 1.5))
        return h, np.exp(1j * rng.uniform(-h.theta - 0.6, h.theta + 0.6, (1, 1)))
    if tag == "cone":
        h = Cone(*np.sort(rng.uniform(0.0, 1.5, 2)))
        return h, np.exp(1j * rng.uniform(h.phi1 - 0.6, h.phi2 + 0.6, (1, 1)))
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    n = int(rng.integers(1, d + 1))
    fam = OrthonormalFamily(q.T[:n].copy())
    e = fam.vectors[0]
    ks, hs = rng.uniform(0.0, 0.6, n), rng.uniform(0.0, 0.6, n)
    radii = rng.uniform(0.3, 0.99, (2, n))
    ms = rng.uniform(0.1, 1.0, (2, n))
    Ms = ms * rng.uniform(1.0, 5.0, (2, n))
    h = {
        "k_cond": lambda: KCond(e, rng.uniform(1.0, 3.0)),
        "unit_vector": lambda: UnitVector(e, ks[0], hs[0]),
        "disk": lambda: Disk(e, *radii[:, 0]),
        "m_bounds": lambda: MBounds(e, ms[0, 0], Ms[0, 0], ms[1, 0], Ms[1, 0]),
        "orthonormal": lambda: Orthonormal(fam, ks=tuple(ks), hs=tuple(hs)),
        "ortho_disk": lambda: OrthoDisk(fam, rhos=tuple(radii[0]), etas=tuple(radii[1])),
        "ortho_m_bounds": lambda: OrthoMBounds(
            fam, ms=tuple(ms[0]), Ms=tuple(Ms[0]), ns=tuple(ms[1]), Ns=tuple(Ms[1])),
    }[tag]()
    center = rng.uniform(0.2, 1.2, n) + 1j * rng.uniform(0.2, 1.2, n)
    return h, (center @ fam.vectors)[None, :]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(TAGS),
    st.integers(1, 3),
    st.integers(2, 11),
    st.sampled_from(("linear", "constleft")),
    st.booleans(),
    st.integers(0, 2 ** 32 - 1),
)
def test_node_check_is_exact_for_the_interpolated_model(tag, d, n, interp, jitter, seed):
    rng = np.random.default_rng(seed)
    h, center = _random_class(rng, tag, d)
    d = center.shape[1]
    spread = rng.choice([0.0, 0.05, 0.3, 1.0])
    noise = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    values = rng.uniform(0.5, 2.0, (n, 1)) * center + spread * noise
    values[rng.uniform(size=n) < 0.2] = 0.0
    a = rng.uniform(-1.0, 1.0)
    b = a + rng.uniform(0.1, 3.0)
    inner = np.sort(rng.uniform(a, b, n - 2)) if jitter else np.linspace(a, b, n)[1:-1]
    nodes = np.concatenate([[a], inner, [b]])
    if np.any(np.diff(nodes) <= 0):
        return
    f = GridFunction(Interval(a, b), nodes, values, interp)
    report = check(f, h)
    resampled = _dense_model_margin(f, h)
    assert report.checked_points == n
    assert report.holds == (resampled >= -DEFAULT_CHECK_TOL)
    assert report.worst_margin == pytest.approx(resampled, rel=1e-12, abs=1e-12)


def _dense_model_margin(f, h, per_panel=400):
    """The worst slack of the model of f on a dense grid of each panel.

    A cone slack is divided by the sup norm of the model on its panel, read
    off the dense samples, and is 0 where that sup is 0.
    """
    (cones, ks), (centres, radii) = constraints(h)
    constleft = f.interpolation == "constleft"
    worst = np.inf
    for p in range(f.nodes.size - 1 + constleft):  # constleft: the last node on its own
        ts = f.nodes[p:p + 2]
        if ts.size == 2:
            ts = np.linspace(ts[0], ts[1], per_panel, endpoint=not constleft)
        v = evaluate_many(f, ts)
        slacks = [r - np.linalg.norm(v - c, axis=1) for c, r in zip(centres, radii)]
        if ks.size:
            norms = np.linalg.norm(v, axis=1)
            cone = np.min([(v @ c.conj()).real - k * norms for c, k in zip(cones, ks)], axis=0)
            sup = norms.max()
            slacks.append(cone / sup if sup > 0.0 else 0.0 * cone)
        worst = min(worst, *map(np.min, slacks))
    return float(worst)


# --- cone margins are relative, windows are half-planes ----------------------

CONE_TAGS = ("k_cond", "karamata", "cone", "unit_vector", "orthonormal")


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(CONE_TAGS),
    st.integers(1, 3),
    st.integers(2, 11),
    st.sampled_from(("linear", "constleft")),
    st.integers(-1000, 1000),
    st.integers(0, 2 ** 32 - 1),
)
def test_cone_checks_are_unchanged_by_powers_of_two(tag, d, n, interp, k, seed):
    rng = np.random.default_rng(seed)
    h, center = _random_class(rng, tag, d)
    d = center.shape[1]
    spread = rng.choice([0.0, 0.05, 0.3, 1.0])
    noise = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    values = rng.uniform(0.5, 2.0, (n, 1)) * center + spread * noise
    values[rng.uniform(size=n) < 0.2] = 0.0
    nodes = np.linspace(0.0, 1.0, n)
    # scale the real and imaginary parts on their own, so signed zeros stay
    scaled = np.ldexp(values.view(float), k).view(complex)
    assume(np.array_equal(np.ldexp(scaled.view(float), -k), values.view(float)))  # 2^k f is exact
    reports = [check(GridFunction(Interval(0, 1), nodes, v, interp), h) for v in (values, scaled)]
    bits = [(r.holds, r.worst_t.hex(), r.worst_margin.hex(), r.checked_points) for r in reports]
    assert bits[0] == bits[1]


RULES = (QuadratureRule(), QuadratureRule("composite-simpson", 1), QuadratureRule("trapezoid-on-nodes", 1))


def _scales_exactly(x: float, k: int) -> bool:
    """Whether x and 2^k x are both zero or normal floats, so that 2^k x is exact on both sides."""
    y = math.ldexp(x, k)
    return x == 0.0 or (math.isfinite(y) and min(abs(x), abs(y)) >= sys.float_info.min)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(CONE_TAGS),
    st.integers(1, 3),
    st.integers(2, 40),
    st.sampled_from(("linear", "constleft")),
    st.booleans(),
    st.sampled_from(RULES),
    st.integers(-1000, 1000),
    st.integers(0, 2 ** 32 - 1),
)
def test_certify_scales_by_powers_of_two_bit_for_bit(tag, d, n, interp, jitter, rule, k, seed):
    # every homogeneous class and rule: certify(2^k f) is 2^k certify(f) in every float field
    rng = np.random.default_rng(seed)
    h, center = _random_class(rng, tag, d)
    d = center.shape[1]
    spread = rng.choice([0.0, 0.05, 0.3, 1.0])
    noise = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    values = rng.uniform(0.5, 2.0, (n, 1)) * center + spread * noise
    values[rng.uniform(size=n) < 0.2] = 0.0
    nodes = np.linspace(0.0, 1.0, n)
    if jitter and n > 2:
        nodes[1:-1] += rng.uniform(-0.3, 0.3, n - 2) / (n - 1)
    scaled = np.ldexp(values.view(float), k).view(complex)
    assume(np.array_equal(np.ldexp(scaled.view(float), -k), values.view(float)))  # 2^k f is exact
    reports = [certify(GridFunction(Interval(0, 1), nodes, v, interp), h, rule) for v in (values, scaled)]
    base, moved = (bound_report_to_dict(r) for r in reports)
    for key in ("coefficient", "coefficient_exceeds_one", "hypothesis_verified"):
        assert base[key] == moved[key], key
    fields = {key: (base[key], moved[key])
              for key in ("lower_bound", "true_norm", "gap", "equality_residual")}
    for j, (x, y) in enumerate(zip(base["equality_vector"], moved["equality_vector"])):
        fields[f"equality_vector[{j}].re"], fields[f"equality_vector[{j}].im"] = (x[0], y[0]), (x[1], y[1])
    for key, (x, y) in fields.items():
        if _scales_exactly(x, k):
            assert y.hex() == math.ldexp(x, k).hex(), (key, x, y)


@pytest.mark.parametrize("rule", RULES, ids=lambda r: f"{r.kind} {r.refinement}")
def test_certify_scales_exactly_where_weighted_values_are_subnormal(rule):
    # 1e5 panels: the weights are 1e-5, so at k = -1015 the products w * f and
    # the node norms scaled back one by one would be subnormal
    h = Cone(0.2, 0.9)
    f = generate(FamilySpec(h, 3, nodes=100_001))
    base = bound_report_to_dict(certify(f, h, rule))
    for k in (1000, -1000, -1015):
        scaled = np.ldexp(f.values.view(float), k)
        assert np.array_equal(np.ldexp(scaled, -k), f.values.view(float))  # 2^k f is exact
        g = GridFunction(f.interval, f.nodes, scaled.view(complex))
        moved = bound_report_to_dict(certify(g, h, rule))
        for key in ("lower_bound", "true_norm", "gap", "equality_residual"):
            assert moved[key] == math.ldexp(base[key], k), (k, key)


def _angular_slacks(values, lo, hi):
    """The former radian slack of lo <= arg f <= hi; zero samples are skipped."""
    z = values[:, 0]
    keep = np.abs(z) > 0.0
    bad_halfplane = bool(np.any(z[keep].real <= 0.0))
    args = np.angle(z)
    slack = np.minimum(args - lo, hi - args)
    return slack, keep, bad_halfplane


@settings(max_examples=200, deadline=None)
@given(st.booleans(), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
def test_half_plane_windows_agree_with_the_argument(is_cone, u, w, seed):
    if is_cone:
        phi2 = u * (math.pi / 2) * (1 - 1e-12)
        h, lo, hi = Cone(w * phi2, phi2), w * phi2, phi2
    else:
        theta = max(u, 1e-9) * (math.pi / 2) * (1 - 1e-12)
        h, lo, hi = Karamata(theta), -theta, theta
    rng = np.random.default_rng(seed)
    phi = rng.uniform(-math.pi, math.pi, 2000)
    z = rng.uniform(1e-3, 10.0, 2000) * np.exp(1j * phi)
    edge = np.minimum(np.abs(np.angle(np.exp(1j * (phi - lo)))),
                      np.abs(np.angle(np.exp(1j * (phi - hi)))))
    values = z[edge > 1e-6][:, None]
    reference, keep, _ = _angular_slacks(values, lo, hi)
    assert keep.all()
    assert np.array_equal(_slacks(values, h) >= 0.0, reference >= 0.0)


def test_a_window_narrower_than_the_tolerance_still_shuts_out_its_opposite_ray():
    for h, phi in ((Cone(0.7, 0.7), 0.7), (Cone(0.3, 0.3 + 1e-12), 0.3)):
        ray = cmath.exp(1j * phi)
        assert check(constant([ray]), h).holds
        report = check(constant([-ray]), h)
        assert not report.holds and report.worst_margin == pytest.approx(-1.0)


def test_constraints_list_the_e_rows_before_the_i_e_rows():
    fam = OrthonormalFamily(E2)
    (cones, ks), (centres, radii) = constraints(Orthonormal(fam, ks=(0.1, 0.2), hs=(0.3, 0.4)))
    assert np.array_equal(cones, np.concatenate([E2, 1j * E2])) and centres.shape == (0, 2)
    assert ks.tolist() == [0.1, 0.2, 0.3, 0.4] and radii.size == 0
    h = OrthoMBounds(fam, ms=(1.0, 2.0), Ms=(3.0, 4.0), ns=(0.5, 1.0), Ns=(1.5, 5.0))
    (cones, ks), (centres, radii) = constraints(h)
    assert cones.shape == (0, 2) and ks.size == 0
    assert np.array_equal(centres, np.array([[2, 0], [0, 3], [1j, 0], [0, 3j]]))
    assert radii.tolist() == [1.0, 1.0, 0.5, 2.0]
    assert constraints(KCond(E1, 4.0))[0][1].tolist() == [0.25]


# --- validation and serialization -------------------------------------------

def test_parameter_validation_messages():
    with pytest.raises(ValueError, match="unit vector"):
        UnitVector(np.array([2.0 + 0j]), 0.5, 0.5)
    with pytest.raises(ValueError, match="k1"):
        UnitVector(E1, -0.1, 0.5)
    with pytest.raises(ValueError, match="theta"):
        Karamata(2.0)
    with pytest.raises(ValueError, match="phi"):
        Cone(0.5, 0.2)
    with pytest.raises(ValueError, match="K"):
        KCond(E1, 0.5)
    with pytest.raises(ValueError, match="eta1"):
        Disk(E1, 1.2, 0.5)
    with pytest.raises(ValueError, match="M1"):
        MBounds(E1, 2.0, 1.0, 0.5, 2.0)


def test_hypothesis_json_round_trip_all_variants():
    fam = OrthonormalFamily(E2)
    variants = [
        UnitVector(E1, 0.6, 0.8),
        KCond(E1, 2.0),
        Disk(E1, 0.9, 0.8),
        MBounds(E1, 0.5, 2.0, 0.4, 3.0),
        Orthonormal(fam, ks=(0.5, 0.5), hs=(0.5, 0.5)),
        OrthoDisk(fam, rhos=(0.9, 0.9), etas=(0.9, 0.9)),
        OrthoMBounds(fam, ms=(0.05, 0.05), Ms=(4.0, 4.0), ns=(0.05, 0.05), Ns=(4.0, 4.0)),
        Cone(0.3, 0.8),
        Karamata(0.7),
    ]
    for h in variants:
        doc = hypothesis_to_dict(h)
        back = hypothesis_from_dict(doc)
        assert hypothesis_to_dict(back) == doc


def test_hypothesis_from_dict_errors_name_fields():
    # each refusal names its own field once, with no section prefix
    with pytest.raises(ValueError, match=r"^type: unknown tag 'nonsense'"):
        hypothesis_from_dict({"type": "nonsense"})
    with pytest.raises(ValueError, match=r"^k2: missing for type 'unit_vector'"):
        hypothesis_from_dict({"type": "unit_vector", "e": [[1, 0]], "k1": 0.5})
    with pytest.raises(ValueError, match=r"^type: missing"):
        hypothesis_from_dict({"k1": 0.5})
    with pytest.raises(ValueError, match=r"^expected an object"):
        hypothesis_from_dict([0.5])
    with pytest.raises(ValueError, match=r"^ks: "):
        hypothesis_from_dict({"type": "orthonormal", "vectors": [[[1, 0]]], "ks": 0.5, "hs": [0.1]})
    with pytest.raises(ValueError, match=r"^K: "):
        hypothesis_from_dict({"type": "k_cond", "e": [[1, 0]], "K": [2]})


def test_ball_check_memory_does_not_grow_with_the_number_of_balls():
    # 8 balls in d = 4 over 1e5 nodes: the values are 6.4 MB, and a scaled
    # copy of every centre per row would hold 8 times that at once
    d, n = 4, 100_000
    h = OrthoMBounds(OrthonormalFamily(np.eye(d)), ms=(0.05,) * d, Ms=(4.0,) * d,
                     ns=(0.05,) * d, Ns=(4.0,) * d)
    rng = np.random.default_rng(0)
    values = 0.5 + 0.3 * (rng.uniform(-1, 1, (n, d)) + 1j * rng.uniform(-1, 1, (n, d)))
    f = GridFunction(Interval(0.0, 1.0), np.linspace(0.0, 1.0, n), values)
    tracemalloc.start()
    try:
        report = check(f, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6, peak
    # in the normal range every power-of-two scaling is exact: the plain distances, bit for bit
    centres, radii = constraints(h)[1]
    plain = min(r - row_norm(row) for c, r in zip(centres, radii) for row in (values - c).tolist())
    assert report.worst_margin == plain


def test_ball_slacks_scale_each_row_by_its_own_power_of_two():
    values = np.array([[0.3 + 0.4j], [1e308 + 1e308j], [-2.0 + 0j]])
    centres, radii = constraints(Disk(E1, 0.9, 0.9))[1]
    with np.errstate(all="raise"):
        slacks = _ball_slacks(values, centres, radii)
    for c, r, slack in zip(centres, radii, slacks):
        assert np.array_equal(slack[[0, 2]], [r - row_norm(row) for row in (values[[0, 2]] - c).tolist()])
        assert slack[1] == pytest.approx(r - abs(values[1, 0] - c[0]), rel=1e-15)
