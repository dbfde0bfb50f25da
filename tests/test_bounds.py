import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bochner_bounds.bounds import (
    bound_report_to_dict,
    certify,
    coefficient,
    equality_direction,
    equality_holds,
    karamata_vs_cone,
)
from bochner_bounds.gridfn import GridFunction, Interval, QuadratureRule, sample
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
)
from bochner_bounds.jsonio import dumps

E1 = np.array([1.0 + 0j])
E2 = np.eye(2, dtype=complex)
ON_NODE_SIMPSON = QuadratureRule("composite-simpson", refinement=1)


def constant(value, n=5, a=0.0, b=1.0) -> GridFunction:
    vals = np.tile(np.atleast_1d(np.asarray(value, dtype=complex)), (n, 1))
    return GridFunction(Interval(a, b), np.linspace(a, b, n), vals)


def test_coefficient_values():
    assert coefficient(UnitVector(E1, 0.6, 0.8)) == pytest.approx(1.0)
    assert coefficient(Cone(math.pi / 6, math.pi / 3)) == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert coefficient(Disk(E1, 0.9, 0.9)) == pytest.approx(math.sqrt(0.38), abs=1e-12)
    assert coefficient(MBounds(E1, 0.1, 10.0, 0.1, 10.0)) == pytest.approx(
        math.sqrt(2.0) * 2.0 / 10.1, abs=1e-12
    )
    assert coefficient(Karamata(math.pi / 3)) == pytest.approx(0.5)
    assert coefficient(KCond(E1, 4.0)) == pytest.approx(0.25)


def test_coefficient_above_one_is_a_warning_not_an_error():
    h = Disk(E1, 0.6, 0.6)  # empty class: the disks do not intersect
    assert coefficient(h) == pytest.approx(math.sqrt(1.28), abs=1e-12)
    report = certify(constant([(1 + 1j) / 2]), h)
    assert report.coefficient_exceeds_one
    assert report.coefficient == 1.0
    assert not report.hypothesis_verified


def test_orthonormal_single_vector_collapses_exactly():
    fam = OrthonormalFamily(E2[:1])
    for k1, k2 in ((0.6, 0.8), (0.3, 0.1), (0.0, 0.9)):
        assert coefficient(Orthonormal(fam, ks=(k1,), hs=(k2,))) == coefficient(
            UnitVector(E2[0], k1, k2)
        )
    assert coefficient(OrthoDisk(fam, rhos=(0.9,), etas=(0.8,))) == coefficient(
        Disk(E2[0], 0.9, 0.8)
    )
    assert coefficient(
        OrthoMBounds(fam, ms=(0.2,), Ms=(3.0,), ns=(0.3,), Ns=(2.0,))
    ) == coefficient(MBounds(E2[0], 0.2, 3.0, 0.3, 2.0))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_single_vector_classes_report_like_their_n1_families(d, seed):
    rng = np.random.default_rng(seed)
    e = rng.normal(size=d) + 1j * rng.normal(size=d)
    e /= np.linalg.norm(e)
    fam = OrthonormalFamily(e[None, :])
    k1, k2 = rng.uniform(0.0, 0.7, 2)
    eta1, eta2 = rng.uniform(0.05, 0.99, 2)
    m1, m2 = rng.uniform(0.05, 1.0, 2)
    M1, M2 = m1 + rng.uniform(0.0, 4.0), m2 + rng.uniform(0.0, 4.0)
    pairs = [
        (UnitVector(e, k1, k2), Orthonormal(fam, ks=(k1,), hs=(k2,))),
        (Disk(e, eta1, eta2), OrthoDisk(fam, rhos=(eta1,), etas=(eta2,))),
        (MBounds(e, m1, M1, m2, M2), OrthoMBounds(fam, ms=(m1,), Ms=(M1,), ns=(m2,), Ns=(M2,))),
    ]
    g = rng.normal(size=(9, d)) + 1j * rng.normal(size=(9, d))
    f = GridFunction(Interval(0, 1), np.linspace(0, 1, 9), 0.5 * (1 + 1j) * e + 0.2 * g)
    for single, family in pairs:
        assert check(f, single) == check(f, family)
        reports = [bound_report_to_dict(certify(f, h)) for h in (single, family)]
        for doc in reports:
            del doc["hypothesis"]
        assert dumps(reports[0]) == dumps(reports[1])


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, math.pi / 2, exclude_max=True), st.floats(0.0, 1.0))
def test_cone_is_a_unit_vector_class_in_normal_form(phi2, frac):
    phi1 = frac * phi2
    cone = Cone(phi1, phi2)
    unit = UnitVector(E1, math.cos(phi2), math.sin(phi1))
    assert coefficient(cone) == coefficient(unit)
    assert np.array_equal(equality_direction(cone), equality_direction(unit))


def test_orthonormal_zero_imaginary_part_matches_real_only_formula():
    fam = OrthonormalFamily(E2)
    ks = (0.5, 0.3)
    h = Orthonormal(fam, ks=ks, hs=(0.0, 0.0))
    assert coefficient(h) == math.sqrt(sum(k * k for k in ks))


def test_certify_constant_witness_is_exact():
    h = UnitVector(E1, 0.6, 0.8)
    report = certify(constant((0.6 + 0.8j) * E1), h)
    assert report.hypothesis_verified
    assert report.coefficient == pytest.approx(1.0)
    assert report.lower_bound == pytest.approx(1.0, abs=1e-12)
    assert report.true_norm == pytest.approx(1.0, abs=1e-12)
    assert report.gap == pytest.approx(0.0, abs=1e-12)
    assert report.equality_residual == pytest.approx(0.0, abs=1e-12)
    assert equality_holds(report, tol=1e-10)


def test_certify_cone_arc_has_a_real_gap():
    f = sample(lambda t: cmath.exp(1j * t), Interval(math.pi / 6, math.pi / 3), 257)
    report = certify(f, Cone(math.pi / 6, math.pi / 3), ON_NODE_SIMPSON)
    assert report.hypothesis_verified
    assert report.lower_bound == pytest.approx(math.sqrt(0.5) * math.pi / 6, rel=1e-9)
    assert report.true_norm == pytest.approx(2 * math.sin(math.pi / 12), rel=1e-9)
    assert report.gap == pytest.approx(report.true_norm - report.lower_bound, abs=1e-15)
    assert report.gap > 0.1
    assert not equality_holds(report, tol=1e-9)


def test_certify_disk_constant():
    report = certify(constant([(1 + 1j) / 2]), Disk(E1, 0.9, 0.9))
    assert report.hypothesis_verified
    assert report.lower_bound == pytest.approx(math.sqrt(0.38) * math.sqrt(0.5), abs=1e-9)
    assert report.true_norm == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert report.gap > 0


def test_kcond_equality_case():
    report = certify(constant(E1), KCond(E1, 1.0))
    assert report.hypothesis_verified
    assert equality_holds(report, tol=1e-12)


def test_karamata_equality_characterization():
    # Karamata(theta) is KCond(e=1, K=1/cos theta): equality iff the integral
    # is cos(theta) * integral |f|, e.g. equal weight on exp(+i theta) and
    # exp(-i theta); the arc exp(i(t - 0.5)) stays inside the window but
    # spreads over it, so it falls short
    theta = 0.6
    signs = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
    f = GridFunction(
        Interval(0, 1), np.linspace(0, 1, 5), np.exp(1j * theta * signs)[:, None], "constleft"
    )
    report = certify(f, Karamata(theta))
    assert report.hypothesis_verified
    assert report.equality_vector == pytest.approx([math.cos(theta)], abs=1e-15)
    assert equality_holds(report, tol=1e-12)
    arc = sample(lambda t: cmath.exp(1j * (t - 0.5)), Interval(0, 1), 33)
    report = certify(arc, Karamata(theta))
    assert report.hypothesis_verified
    assert report.gap > 0.1
    assert report.equality_residual > 0.1
    assert not equality_holds(report)


def test_karamata_vs_cone_examples():
    base, cone = karamata_vs_cone(math.pi / 6, math.pi / 3)
    assert base == pytest.approx(0.5)
    assert cone == pytest.approx(math.sqrt(0.5), abs=1e-12)
    base, cone = karamata_vs_cone(0.0, 0.77)
    assert base == cone
    base, cone = karamata_vs_cone(math.pi / 4, math.pi / 4)
    assert base == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert cone == pytest.approx(1.0, abs=1e-12)


def test_karamata_vs_cone_improvement_random():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        phi2 = rng.uniform(0.0, math.pi / 2 - 1e-6)
        phi1 = rng.uniform(0.0, phi2)
        base, cone = karamata_vs_cone(phi1, phi2)
        assert cone >= base - 1e-15
        if phi1 > 1e-6:
            assert cone > base


def test_equality_vector_per_variant_directions():
    nrm = 1.0  # constant unit-modulus functions on [0, 1]
    cases = [
        (UnitVector(E1, 0.6, 0.8), (0.6 + 0.8j) * E1),
        (KCond(E1, 2.0), 0.5 * E1),
        (Disk(E1, 0.8, 0.6), (0.6 + 0.8j) * E1),
        (Cone(0.3, 0.3), np.array([math.cos(0.3) + 1j * math.sin(0.3)])),
    ]
    for h, direction in cases:
        f = constant(direction / abs(np.linalg.norm(direction)))
        report = certify(f, h)
        assert report.equality_vector == pytest.approx(direction * nrm, abs=1e-12)


def test_equality_direction_norm_equals_coefficient():
    # if the integral hits the predicted vector, its norm is exactly the
    # coefficient times the norm integral, so the two equality tests agree
    from bochner_bounds.bounds import equality_direction

    fam = OrthonormalFamily(E2)
    variants = [
        UnitVector(E1, 0.6, 0.3),
        KCond(E1, 2.5),
        Disk(E1, 0.9, 0.8),
        MBounds(E1, 0.2, 3.0, 0.5, 2.0),
        Orthonormal(fam, ks=(0.3, 0.4), hs=(0.1, 0.2)),
        OrthoDisk(fam, rhos=(0.9, 0.8), etas=(0.7, 0.95)),
        OrthoMBounds(fam, ms=(0.1, 0.2), Ms=(2.0, 3.0), ns=(0.1, 0.3), Ns=(1.5, 2.5)),
        Cone(0.2, 0.9),
    ]
    for h in variants:
        direction = equality_direction(h)
        assert np.linalg.norm(direction) == pytest.approx(coefficient(h), abs=1e-12)


def test_report_dict_has_all_fields():
    report = certify(constant(E1), KCond(E1, 1.0))
    doc = bound_report_to_dict(report)
    assert set(doc) == {
        "hypothesis",
        "coefficient",
        "coefficient_exceeds_one",
        "lower_bound",
        "true_norm",
        "gap",
        "equality_vector",
        "equality_residual",
        "hypothesis_verified",
    }
    assert doc["hypothesis"] == "k_cond"


def test_estimated_coefficient_dominates_derived_classes():
    from bochner_bounds.hypotheses import estimate_unit_vector
    from bochner_bounds.witness import FamilySpec, generate

    disk = Disk(E1, 0.9, 0.85)
    annulus = MBounds(E1, 0.2, 3.0, 0.2, 3.0)
    for h in (disk, annulus):
        spec = FamilySpec(hypothesis=h, seed=17)
        for trial in range(50):
            f = generate(spec, trial)
            est = estimate_unit_vector(f, E1)
            assert est is not None
            assert coefficient(UnitVector(E1, *est)) >= coefficient(h) - 1e-9


def test_soundness_on_seeded_cone_samples():
    rng = np.random.default_rng(12)
    h = Cone(0.2, 1.1)
    for _ in range(100):
        phases = rng.uniform(h.phi1, h.phi2, 17)
        radii = rng.uniform(0.5, 1.5, 17)
        f = GridFunction(
            Interval(0, 1), np.linspace(0, 1, 17), (radii * np.exp(1j * phases))[:, None]
        )
        report = certify(f, h)
        assert report.hypothesis_verified
        assert report.gap >= -1e-8
