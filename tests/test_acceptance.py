"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is seeded and targets well under a minute.
"""

import cmath
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bochner_bounds.bounds import certify, coefficient, equality_holds, karamata_vs_cone
from bochner_bounds.gridfn import (
    GridFunction,
    Interval,
    QuadratureRule,
    integrate_norm,
    integrate_vector,
    sample,
)
from bochner_bounds.hilbert import OrthonormalFamily, bessel_defect, check_orthonormal, span_projection
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
    check,
    disk_feasible,
    disk_to_k,
    estimate_unit_vector,
    mM_to_k,
    mforms_agree,
)
from bochner_bounds.witness import (
    FamilySpec,
    _widened,
    generate,
    make_witness,
    perturb_scan,
)

ROOT = Path(__file__).resolve().parents[1]
E1 = np.array([1.0 + 0j])
E2 = np.eye(2, dtype=complex)
FAM2 = OrthonormalFamily(E2)
ON_NODE_SIMPSON = QuadratureRule("composite-simpson", refinement=1)


def _report(criterion: int, label: str) -> None:
    print(f"[PASS] criterion {criterion:2d}: {label}")


def _grid(values: np.ndarray, a=0.0, b=1.0) -> GridFunction:
    return GridFunction(Interval(a, b), np.linspace(a, b, values.shape[0]), values)


SOUNDNESS_FAMILIES = [
    ("unit_vector", UnitVector(E1, 0.3, 0.4)),
    ("k_cond", KCond(E1, 2.0)),
    ("karamata", Karamata(0.6)),
    ("cone", Cone(math.pi / 6, math.pi / 3)),
    ("disk_scalar", Disk(E1, 0.9, 0.9)),
    ("disk_d2", Disk(E2[0], 0.9, 0.85)),
    ("m_bounds", MBounds(E1, 0.2, 3.0, 0.2, 3.0)),
    ("orthonormal", Orthonormal(FAM2, ks=(0.3, 0.3), hs=(0.2, 0.2))),
    ("ortho_disk", OrthoDisk(FAM2, rhos=(0.95, 0.95), etas=(0.95, 0.95))),
    (
        "ortho_m_bounds",
        OrthoMBounds(FAM2, ms=(0.05, 0.05), Ms=(4.0, 4.0), ns=(0.05, 0.05), Ns=(4.0, 4.0)),
    ),
]


def test_criterion_1_soundness_per_variant():
    trials = 1000
    for label, h in SOUNDNESS_FAMILIES:
        spec = FamilySpec(hypothesis=h, seed=0)
        violations = 0
        for t in range(trials):
            rep = certify(generate(spec, t), h)
            assert rep.hypothesis_verified, f"{label} trial {t} failed its own hypothesis"
            if rep.gap < -1e-8:
                violations += 1
        assert violations == 0, f"{label}: {violations} soundness violations"
    _report(1, f"{len(SOUNDNESS_FAMILIES)} variants x {trials} verified trials, gap >= -1e-8")


def test_criterion_2_closed_form_oracle():
    a, b = math.pi / 6, math.pi / 3
    f = sample(lambda t: cmath.exp(1j * t), Interval(a, b), 257)
    norm_integral = math.pi / 6  # |exp(i t)| = 1
    true_norm = 2 * math.sin(math.pi / 12)  # |(exp(ib) - exp(ia)) / i|
    assert integrate_norm(f, ON_NODE_SIMPSON) == pytest.approx(norm_integral, rel=1e-9)
    assert np.linalg.norm(integrate_vector(f, ON_NODE_SIMPSON)) == pytest.approx(
        true_norm, rel=1e-9
    )
    report = certify(f, Cone(a, b), ON_NODE_SIMPSON)
    assert report.true_norm == pytest.approx(true_norm, rel=1e-9)
    assert report.lower_bound == pytest.approx(math.sqrt(2) / 2 * math.pi / 6, rel=1e-9)
    _report(2, "N=256 Simpson reproduces pi/6, 2 sin(pi/12), and sqrt(2)/2 * pi/6 to 1e-9")


def test_criterion_3_improvement_over_symmetric_window():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        phi2 = rng.uniform(0.0, math.pi / 2 - 1e-9)
        phi1 = rng.uniform(0.0, phi2)
        base, cone = karamata_vs_cone(phi1, phi2)
        assert cone >= base - 1e-15
        if phi1 > 1e-6:
            assert cone > base
    for phi2 in rng.uniform(0.0, math.pi / 2 - 1e-9, 50):
        base, cone = karamata_vs_cone(0.0, phi2)
        assert abs(cone - base) <= 1e-12
    _report(3, "cone coefficient dominates cos(phi2) on 1000 draws, equality iff phi1 = 0")


WITNESS_SURFACES = [
    UnitVector(E1, 0.6, 0.8),
    Orthonormal(FAM2, ks=(0.5, 0.5), hs=(0.5, 0.5)),
    Cone(math.pi / 4, math.pi / 4),
]


def test_criterion_4_equality_iff():
    width = 1.0
    epsilons = [1e-3, 1e-2, 0.1, 0.5]
    for h in WITNESS_SURFACES:
        w = make_witness(h, Interval(0.0, 1.0), node_count=65)
        report = certify(w, h)
        assert report.gap <= 1e-10
        assert report.equality_residual <= 1e-10
        assert equality_holds(report, tol=1e-10)
        for eps, gap in perturb_scan(w, h, epsilons, mode="phase"):
            assert gap >= eps * eps * width / 100.0, f"{type(h).__name__} eps={eps}: gap {gap}"
            f_eps = _phase_spread(w, eps)
            assert not equality_holds(certify(f_eps, _widened(h, eps)), tol=1e-9)
    _report(4, "witnesses attain equality; phase spreads >= 1e-3 break it at the envelope rate")


def _phase_spread(w: GridFunction, eps: float) -> GridFunction:
    s = (w.nodes - w.interval.a) / w.interval.length
    return _grid(w.values * np.exp(1j * eps * (s - 0.5))[:, None])


def test_criterion_5_derived_constant_implications():
    trials = 1000
    eta1, eta2 = 0.9, 0.85
    disk = Disk(E1, eta1, eta2)
    implied = UnitVector(E1, disk_to_k(eta1), disk_to_k(eta2))
    spec = FamilySpec(hypothesis=disk, seed=10)
    for t in range(trials):
        f = generate(spec, t)
        assert check(f, implied, tol=1e-9).holds
        est = estimate_unit_vector(f, E1)
        assert est is not None
        assert est[0] >= disk_to_k(eta1) - 1e-9
        assert est[1] >= disk_to_k(eta2) - 1e-9
    m, M = 0.2, 3.0
    annulus = MBounds(E1, m, M, m, M)
    k = mM_to_k(m, M)
    implied = UnitVector(E1, k, k)
    spec = FamilySpec(hypothesis=annulus, seed=11)
    for t in range(trials):
        f = generate(spec, t)
        assert check(f, implied, tol=1e-9).holds
        est = estimate_unit_vector(f, E1)
        assert est is not None
        assert est[0] >= k - 1e-9 and est[1] >= k - 1e-9
    _report(5, "1000 disk + 1000 annulus trials: implied constants hold, estimators dominate")


def test_criterion_6_form_equivalence():
    rng = np.random.default_rng(6)
    nodes = 20
    points_checked = 0
    for _ in range(260):
        d = int(rng.integers(1, 4))
        e = rng.normal(size=d) + 1j * rng.normal(size=d)
        e = e / np.linalg.norm(e)
        m = rng.uniform(0.05, 1.0)
        M = m + rng.uniform(0.1, 5.0)
        h = MBounds(e, m, M, m, M)
        center = rng.uniform(0.0, M) * (e + 1j * e) / 2.0
        g = rng.normal(size=(nodes, d)) + 1j * rng.normal(size=(nodes, d))
        f = _grid(center + rng.uniform(0.0, M) * 0.3 * g)
        assert mforms_agree(f, h, tol=1e-9)
        points_checked += 2 * nodes - 1
    assert points_checked >= 10 ** 4
    _report(6, f"annulus forms (i) and (ii) agree at {points_checked} random points")


def test_criterion_7_bessel_oracle():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        d = int(rng.integers(1, 9))
        n = int(rng.integers(1, d + 1))
        raw = rng.normal(size=(d, n)) + 1j * rng.normal(size=(d, n))
        q, _ = np.linalg.qr(raw)
        fam = check_orthonormal(q.T[:n], tol=1e-10)
        assert isinstance(fam, OrthonormalFamily)
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        defect = bessel_defect(x, fam)
        assert defect >= -1e-10
        residual = float(np.linalg.norm(x - span_projection(x, fam)) ** 2)
        assert abs(defect - residual) <= 1e-10
    _report(7, "1000 random families: Bessel slack >= -1e-10 and matches the residual identity")


def test_criterion_8_special_case_collapse():
    rng = np.random.default_rng(8)
    fam1 = OrthonormalFamily(E2[:1])
    for _ in range(200):
        k1, k2 = rng.uniform(0.0, 1.0, 2)
        single = coefficient(UnitVector(E2[0], k1, k2))
        collapsed = coefficient(Orthonormal(fam1, ks=(k1,), hs=(k2,)))
        assert abs(collapsed - single) <= 1e-15
    for _ in range(200):
        n = int(rng.integers(1, 5))
        dim = int(rng.integers(n, 6))
        basis = OrthonormalFamily(np.eye(dim, dtype=complex)[:n])
        ks = tuple(rng.uniform(0.0, 1.0, n))
        got = coefficient(Orthonormal(basis, ks=ks, hs=(0.0,) * n))
        assert abs(got - math.sqrt(sum(k * k for k in ks))) <= 1e-15
    _report(8, "n=1 collapse and hs=0 collapse both exact to 1e-15")


def test_criterion_9_feasibility_geometry():
    rng = np.random.default_rng(9)
    samples = 10 ** 6
    for delta in (0.05, -0.05):
        eta1 = 0.7
        eta2 = math.sqrt(2.0) - eta1 + delta
        g = rng.normal(size=(samples, 2))
        g /= np.linalg.norm(g, axis=1)[:, None]
        radii = eta1 * np.sqrt(rng.uniform(0.0, 1.0, samples))
        z = 1.0 + radii * (g[:, 0] + 1j * g[:, 1])
        hits = int(np.count_nonzero(np.abs(z - 1j) <= eta2))
        feasible = disk_feasible(eta1, eta2)
        assert feasible == (delta > 0)
        assert (hits > 0) == feasible, f"delta={delta}: {hits} hits vs feasible={feasible}"
    _report(9, "closed-disk feasibility agrees with 1e6-sample rejection probes at sqrt(2) +/- 0.05")


def test_criterion_10_quadrature_order():
    a, b = 0.0, math.pi / 3
    exact = (cmath.exp(1j * b) - cmath.exp(1j * a)) / 1j
    errors = []
    for n_intervals in (32, 64, 128, 256):
        f = sample(lambda t: cmath.exp(1j * t), Interval(a, b), n_intervals + 1)
        errors.append(abs(integrate_vector(f, ON_NODE_SIMPSON)[0] - exact))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(3)]
    assert min(orders) >= 3.5, f"orders {orders}"
    _report(10, f"Simpson orders across three doublings: {[round(o, 2) for o in orders]}")


def test_criterion_11_cli_round_trip_and_exit_codes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "cli_roundtrip.py")],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all checks passed" in proc.stdout
    _report(11, "end-to-end CLI script over bundled inputs passed")
