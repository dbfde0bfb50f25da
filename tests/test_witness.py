import math
from dataclasses import asdict

import numpy as np
import pytest

from bochner_bounds.bounds import certify, coefficient, equality_holds

from bochner_bounds.gridfn import GridFunction, Interval
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
    check,
    constraints,
)
from bochner_bounds.jsonio import dumps_csv
from bochner_bounds import witness
from bochner_bounds.witness import (
    FamilySpec,
    generate,
    make_witness,
    perturb_scan,
    tightness,
)

E1 = np.array([1.0 + 0j])
E2 = np.eye(2, dtype=complex)
FAM2 = OrthonormalFamily(E2)

UNIT_SURFACE = UnitVector(E1, 0.6, 0.8)
ORTH_SURFACE = Orthonormal(FAM2, ks=(0.5, 0.5), hs=(0.5, 0.5))
CONE_SURFACE = Cone(math.pi / 4, math.pi / 4)


def test_unit_vector_witness_values_and_equality():
    w = make_witness(UNIT_SURFACE)
    assert np.allclose(w.values, 0.6 + 0.8j)
    report = certify(w, UNIT_SURFACE)
    assert report.gap == pytest.approx(0.0, abs=1e-12)
    assert report.equality_residual == pytest.approx(0.0, abs=1e-12)
    assert equality_holds(report, tol=1e-10)


def test_orthonormal_witness_has_unit_norm_samples():
    w = make_witness(ORTH_SURFACE)
    assert np.allclose(w.values, 0.5 + 0.5j)
    assert np.allclose(np.linalg.norm(w.values, axis=1), 1.0)
    assert equality_holds(certify(w, ORTH_SURFACE), tol=1e-10)


def test_cone_witness_is_the_unit_ray():
    w = make_witness(CONE_SURFACE)
    assert np.allclose(w.values, (1 + 1j) / math.sqrt(2))
    report = certify(w, CONE_SURFACE)
    assert report.true_norm == pytest.approx(report.lower_bound, abs=1e-12)


def test_make_witness_defaults_and_node_count():
    w = make_witness(UNIT_SURFACE)
    assert (w.interval, w.nodes.size, w.interpolation) == (Interval(0.0, 1.0), 33, "linear")
    w = make_witness(UNIT_SURFACE, Interval(-1.0, 2.0), node_count=2)
    assert w.nodes.tolist() == [-1.0, 2.0]
    with pytest.raises(ValueError, match="node_count must be >= 2, got 1"):
        make_witness(UNIT_SURFACE, node_count=1)


def test_every_witness_passes_its_check():
    for h in (UNIT_SURFACE, ORTH_SURFACE, CONE_SURFACE):
        w = make_witness(h)
        assert check(w, h).worst_margin >= -1e-12


def test_off_surface_witness_requests_are_rejected():
    with pytest.raises(ValueError, match="coefficient"):
        make_witness(UnitVector(E1, 0.6, 0.7))
    # coefficient cos(1e-6) is 2252 ulps below 1: the window is genuinely
    # non-degenerate and has no constant witness
    assert coefficient(Cone(0.0, 1e-6)) != 1.0
    with pytest.raises(ValueError, match="coefficient"):
        make_witness(Cone(0.0, 1e-6))


def test_k_condition_with_K_one_has_the_constant_witness_e():
    h = KCond(E1, 1.0)
    w = make_witness(h)
    assert np.array_equal(w.values, np.tile(E1, (33, 1)))
    assert equality_holds(certify(w, h), tol=1e-10)
    # Im<f, e> is free in the K-condition, so a phase spread has no rotated class
    with pytest.raises(ValueError, match="no phase-spread perturbation for hypothesis 'k_cond'"):
        perturb_scan(w, h, [0.1])


def test_surface_class_whose_direction_leaves_it_is_refused():
    r = 1.0 / math.sqrt(2.0)
    h = Disk(E1, r, r)
    assert abs(coefficient(h) - 1.0) <= 4 * math.ulp(1.0)
    # the direction (1 + i)/sqrt(2) lies outside both disks; the disks touch
    # at (1 + i)/2 only
    with pytest.raises(ValueError, match="no constant witness for hypothesis 'disk'"):
        make_witness(h)


def test_phase_scan_gaps_increase_from_zero():
    w = make_witness(CONE_SURFACE)
    scan = perturb_scan(w, CONE_SURFACE, [0.0, 0.01, 0.1], mode="phase")
    eps, gaps = zip(*scan)
    assert eps == (0.0, 0.01, 0.1)
    assert abs(gaps[0]) <= 1e-12
    assert gaps[0] < gaps[1] < gaps[2]


def test_phase_scan_widens_a_symmetric_window_as_a_symmetric_window():
    # the rotated constant 1 keeps |arg f| <= 0.3 + eps/2; as a cone its window would start below 0
    w = GridFunction(Interval(0.0, 1.0), np.linspace(0.0, 1.0, 33), np.ones((33, 1)))
    gaps = [gap for _, gap in perturb_scan(w, Karamata(0.3), [0.0, 0.1, 0.5], mode="phase")]
    assert gaps[0] < gaps[1] < gaps[2]
    assert witness._widened(Karamata(0.3), 0.1) == Karamata(0.3 + 0.05)


def test_phase_scan_on_unit_vector_witness():
    w = make_witness(UNIT_SURFACE)
    scan = perturb_scan(w, UNIT_SURFACE, [0.0, 0.05, 0.2], mode="phase")
    gaps = [g for _, g in scan]
    assert gaps[0] <= 1e-12
    assert gaps[1] > 1e-4
    assert gaps[2] > gaps[1]


def test_amplitude_scan_preserves_equality():
    w = make_witness(UNIT_SURFACE)
    scan = perturb_scan(w, UNIT_SURFACE, [0.0, 0.1, 0.5], mode="amplitude")
    for _, gap in scan:
        assert abs(gap) <= 1e-10
    # equality survives because the direction of f stays fixed: the integral
    # remains parallel to (k1 + i k2) e whatever the modulus profile does
    for eps in (0.1, 0.5):
        amp = 1.0 + eps * np.sin(2.0 * math.pi * w.nodes)
        f = GridFunction(w.interval, w.nodes, w.values * amp[:, None])
        report = certify(f, UNIT_SURFACE)
        assert report.hypothesis_verified
        assert equality_holds(report, tol=1e-10)


def test_scan_perturbs_on_the_nodes_of_the_witness():
    # a non-uniform grid: the phase ramp must be scored on these nodes
    nodes = np.array([0.0, 0.05, 0.1, 1.0])
    h = Cone(0.7, 0.7)
    w = GridFunction(Interval(0.0, 1.0), nodes, np.tile(np.exp(0.7j), (4, 1)), "linear")
    [(eps, gap)] = perturb_scan(w, h, [0.2])
    ramp = GridFunction(w.interval, nodes, w.values * np.exp(0.2j * (nodes - 0.5))[:, None])
    assert gap == certify(ramp, witness._widened(h, 0.2)).gap
    assert gap == pytest.approx(0.101299, abs=1e-6)


def test_scan_errors_when_perturbation_leaves_the_class():
    cone_w = make_witness(CONE_SURFACE)
    with pytest.raises(ValueError, match="argument window"):
        perturb_scan(cone_w, CONE_SURFACE, [2.0], mode="phase")
    unit_w = make_witness(UnitVector(E1, 1.0, 0.0))
    with pytest.raises(ValueError, match="negative"):
        perturb_scan(unit_w, UnitVector(E1, 1.0, 0.0), [0.1], mode="phase")
    with pytest.raises(ValueError, match="amplitude"):
        perturb_scan(unit_w, UnitVector(E1, 1.0, 0.0), [1.0], mode="amplitude")


@pytest.mark.parametrize(
    "epsilons, mode, message",
    [
        ([], "bogus", r"^mode: unknown perturbation mode 'bogus'$"),
        ([0.1], "bogus", r"^mode: unknown perturbation mode 'bogus'$"),
        ([0.1, math.nan], "phase", r"^epsilons: must be finite and >= 0, got nan$"),
        ([0.1, math.inf], "amplitude", r"^epsilons: must be finite and >= 0, got inf$"),
        ([0.0, -0.1], "phase", r"^epsilons: must be finite and >= 0, got -0.1$"),
        ([0.1, 1.0], "amplitude", r"^epsilons: amplitude modulation 1.0 >= 1 "),
    ],
)
def test_scan_checks_its_arguments_before_it_certifies(monkeypatch, epsilons, mode, message):
    w = make_witness(UNIT_SURFACE)
    monkeypatch.setattr(witness, "certify", lambda *args: pytest.fail("certified"))
    with pytest.raises(ValueError, match=message):
        perturb_scan(w, UNIT_SURFACE, epsilons, mode=mode)


def test_gen_cone_is_deterministic_and_sound():
    spec = FamilySpec(Cone(0.2, 1.0), seed=42, nodes=33)
    f1 = generate(spec)
    f2 = generate(spec)
    assert np.array_equal(f1.values, f2.values)
    assert np.array_equal(f1.nodes, f2.nodes)
    assert check(f1, Cone(0.2, 1.0)).holds
    f3 = generate(FamilySpec(Cone(0.2, 1.0), seed=43, nodes=33))
    assert not np.array_equal(f1.values, f3.values)


def test_gen_cone_degenerate_window_stays_on_ray():
    f = generate(FamilySpec(Cone(0.7, 0.7), seed=0))
    assert np.allclose(np.angle(f.values[:, 0]), 0.7)


def test_gen_disk_samples_lie_in_both_disks():
    f = generate(FamilySpec(Disk(E1, 0.9, 0.9), seed=1, nodes=400))
    assert np.all(np.linalg.norm(f.values - E1, axis=1) <= 0.9)
    assert np.all(np.linalg.norm(f.values - 1j * E1, axis=1) <= 0.9)
    assert check(f, Disk(E1, 0.9, 0.9)).holds


def test_gen_disk_rejects_empty_intersection():
    with pytest.raises(ValueError, match="empty intersection"):
        generate(FamilySpec(Disk(E1, 0.6, 0.6), seed=0, nodes=10))


def test_gen_disk_tangency_yields_the_single_point():
    r = math.sqrt(2) / 2
    f = generate(FamilySpec(Disk(E1, r, r), seed=0, nodes=5))
    assert np.allclose(f.values, (1 + 1j) / 2)


def test_rejection_keeps_the_draw_order_and_stops_at_the_cap():
    drawn = []

    def every_fifth(batch):
        start = sum(drawn)
        drawn.append(batch)
        candidates = np.arange(start, start + batch)
        return candidates, candidates % 5 == 0

    # 40 of the first 200 are kept, then a batch of at least 128 for the last 10
    assert np.array_equal(witness._rejection(every_fifth, 50), 5 * np.arange(50))
    assert drawn == [200, 128]

    def never(batch):
        return np.zeros(batch), np.zeros(batch, dtype=bool)

    with pytest.raises(RuntimeError, match="exceeded 1000000 attempts per node"):
        witness._rejection(never, 2)


@pytest.mark.parametrize(
    "h",
    [
        UnitVector(E1, 0.3, 0.4),
        KCond(E1, 2.0),
        Karamata(0.6),
        Cone(0.2, 1.1),
        Disk(E1, 0.9, 0.8),
        MBounds(E1, 0.2, 3.0, 0.2, 3.0),
        Orthonormal(FAM2, ks=(0.3, 0.3), hs=(0.2, 0.2)),
        OrthoDisk(FAM2, rhos=(0.95, 0.95), etas=(0.95, 0.95)),
        OrthoMBounds(FAM2, ms=(0.05, 0.05), Ms=(4.0, 4.0), ns=(0.05, 0.05), Ns=(4.0, 4.0)),
        # a residual orthogonal to the family (d > n), and the coefficient-1 ray
        pytest.param(UnitVector(E2[0], 0.3, 0.4), id="UnitVector d=2"),
        pytest.param(KCond(E2[0], 2.0), id="KCond d=2"),
        pytest.param(Orthonormal(OrthonormalFamily(np.eye(3, dtype=complex)[:1]), ks=(0.2,), hs=(0.3,)),
                     id="Orthonormal n=1 d=3"),
        pytest.param(UnitVector(E1, 0.6, 0.8), id="UnitVector on the surface"),
    ],
    ids=lambda h: type(h).__name__,
)
def test_generator_soundness_per_variant(h):
    spec = FamilySpec(hypothesis=h, seed=9)
    for trial in range(10):
        f = generate(spec, trial)
        assert check(f, h).holds, f"trial {trial} violates {type(h).__name__}"


def test_family_spec_checks_the_node_count_for_every_class():
    # a window, cones alone, two balls and four balls
    for h in (Cone(0.2, 1.1), UnitVector(E1, 0.3, 0.4), Disk(E1, 0.9, 0.8),
              OrthoDisk(FAM2, rhos=(0.95, 0.95), etas=(0.95, 0.95))):
        for nodes in (1, 0, -1):
            with pytest.raises(ValueError, match="nodes must be >= 2"):
                FamilySpec(hypothesis=h, seed=0, nodes=nodes)


def test_generate_is_deterministic_per_trial():
    spec = FamilySpec(hypothesis=Disk(E1, 0.9, 0.9), seed=5)
    a = generate(spec, 3)
    b = generate(spec, 3)
    assert np.array_equal(a.values, b.values)
    c = generate(spec, 4)
    assert not np.array_equal(a.values, c.values)


def test_generate_samples_an_inscribed_ball_where_rejection_fails(monkeypatch):
    def too_thin(*args, **kwargs):
        raise RuntimeError("rejection sampling exceeded the cap")

    monkeypatch.setattr(witness, "_gen_two_balls", too_thin)
    h = OrthoDisk(OrthonormalFamily(E1[None, :]), rhos=(0.70711,), etas=(0.70711,))
    spec = FamilySpec(hypothesis=h, seed=5)
    f = generate(spec, 2)
    inner = witness._gen_inner_ball(7, *constraints(h)[1], spec.nodes)
    assert np.array_equal(f.values, inner) and check(f, h).holds


def test_tightness_cone_family():
    spec = FamilySpec(hypothesis=Cone(math.pi / 6, math.pi / 3), seed=0)
    stats = tightness(200, spec, Cone(math.pi / 6, math.pi / 3))
    assert stats.violations == 0
    assert 0.0 <= stats.min_ratio <= stats.mean_ratio <= stats.max_ratio <= 1.0 + 1e-8


def test_tightness_equality_surface_family_is_exact():
    spec = FamilySpec(hypothesis=Cone(0.5, 0.5), seed=1, rmin=1.0, rmax=1.0)
    stats = tightness(50, spec, Cone(0.5, 0.5))
    assert stats.min_ratio == pytest.approx(1.0, abs=1e-12)
    assert stats.max_ratio == pytest.approx(1.0, abs=1e-12)


def test_tightness_karamata_scores_below_cone():
    family = FamilySpec(hypothesis=Cone(math.pi / 6, math.pi / 3), seed=7)
    cone_stats = tightness(100, family, Cone(math.pi / 6, math.pi / 3))
    karamata_stats = tightness(100, family, Karamata(math.pi / 3))
    assert karamata_stats.violations == 0
    assert karamata_stats.mean_ratio < cone_stats.mean_ratio


def test_tightness_counts_violations_of_a_class_the_family_leaves():
    # arguments spread over [0, 1.2] break the bound of the narrower window [0.5, 0.6]
    spec = FamilySpec(hypothesis=Cone(0.0, 1.2), seed=0)
    assert tightness(50, spec, Cone(0.5, 0.6)).violations > 0
    assert tightness(50, spec, Cone(0.0, 1.2)).violations == 0


def test_tightness_is_deterministic():
    spec = FamilySpec(hypothesis=Cone(0.1, 0.9), seed=21)
    s1 = tightness(40, spec, Cone(0.1, 0.9))
    s2 = tightness(40, spec, Cone(0.1, 0.9))
    assert s1 == s2


def test_stats_serialization():
    spec = FamilySpec(hypothesis=Cone(0.1, 0.9), seed=2)
    stats = tightness(10, spec, Cone(0.1, 0.9))
    doc = asdict(stats)
    assert doc["trials"] == 10 and doc["violations"] == 0
    csv = dumps_csv(asdict(stats))
    lines = csv.strip().split("\n")
    assert lines[0] == "trials,mean_ratio,min_ratio,max_ratio,violations"
    assert lines[1].startswith("10,")
