import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bochner_bounds.bounds import bound_report_to_dict, certify
from bochner_bounds.gridfn import (
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
from bochner_bounds.hypotheses import Cone
from summation import floats, pairwise_sum, row_norm

ON_NODE_SIMPSON = QuadratureRule("composite-simpson", refinement=1)
TRAPEZOID = QuadratureRule("trapezoid-on-nodes", refinement=1)


def circle_arc(a: float, b: float, n: int) -> GridFunction:
    return sample(lambda t: cmath.exp(1j * t), Interval(a, b), n)


def circle_integral(a: float, b: float) -> complex:
    # closed-form antiderivative of exp(i t)
    return (cmath.exp(1j * b) - cmath.exp(1j * a)) / 1j


def constant(value, a=0.0, b=1.0, n=5, interpolation="linear") -> GridFunction:
    vals = np.tile(np.atleast_1d(np.asarray(value, dtype=complex)), (n, 1))
    return GridFunction(Interval(a, b), np.linspace(a, b, n), vals, interpolation)


def test_interval_requires_a_less_than_b():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)


def test_quadrature_rule_refusals_name_their_field():
    with pytest.raises(ValueError, match=r"^kind: unknown quadrature kind 'x'$"):
        QuadratureRule("x")
    with pytest.raises(ValueError, match=r"^refinement: must be >= 1, got 0$"):
        QuadratureRule(refinement=0)


def test_evaluate_constant_grid():
    f = constant([0.0, 1.0 + 1j])
    assert np.allclose(evaluate_many(f, [0.3]), [[0.0, 1.0 + 1j]])


def test_evaluate_linear_midpoint():
    f = GridFunction(Interval(0, 1), [0.0, 1.0], np.array([[0.0 + 0j], [2.0 + 2j]]))
    assert evaluate_many(f, [0.5])[0, 0] == pytest.approx(1.0 + 1j)


def test_evaluate_constleft_takes_left_value():
    f = GridFunction(
        Interval(0, 1), [0.0, 0.5, 1.0], np.array([[1.0 + 0j], [5.0 + 0j], [9.0 + 0j]]),
        interpolation="constleft",
    )
    # exact at nodes, the left value between them
    assert evaluate_many(f, [0.0, 0.49, 0.5, 0.99, 1.0])[:, 0].tolist() == [1, 1, 5, 5, 9]


def test_evaluate_outside_interval_raises():
    f = constant([1.0])
    for t in (1.5, math.nextafter(1.0, 2.0), math.nextafter(0.0, -1.0), math.nan):
        with pytest.raises(ValueError, match="outside"):
            evaluate_many(f, [0.5, t])


def test_nodes_must_increase():
    with pytest.raises(ValueError, match="increasing"):
        GridFunction(Interval(0, 1), [0.0, 0.6, 0.5, 1.0], np.ones((4, 1), dtype=complex))


def test_values_need_at_least_one_component():
    # the wire form refuses d = 0 too; without this check integrate_norm met an empty maximum
    with pytest.raises(ValueError, match="^values: .*d >= 1"):
        GridFunction(Interval(0, 1), [0.0, 1.0], np.zeros((2, 0), dtype=complex))


def test_end_nodes_must_equal_the_interval_ends():
    ones = np.ones((3, 1), dtype=complex)
    GridFunction(Interval(-1, 1), [-1.0, 0.0, 1.0], ones)
    GridFunction(Interval(-0.0, 1), [0.0, 0.5, 1.0], ones)  # -0.0 == 0.0
    for nodes in ([math.nextafter(-1.0, -2.0), 0.0, 1.0], [-1.0, 0.0, math.nextafter(1.0, 0.0)],
                  [-1.0, 0.0, math.nextafter(1.0, 2.0)]):
        with pytest.raises(ValueError, match="start at a and end at b"):
            GridFunction(Interval(-1, 1), nodes, ones)
    # a short interval whose nodes overrun it, and one whose nodes cover only part of it
    for interval, nodes in ((Interval(0, 1e-14), [0.0, 5e-15, 1.5e-14]),
                            (Interval(-1e-13, 1e-14), [0.0, 1e-14])):
        with pytest.raises(ValueError, match="start at a and end at b"):
            GridFunction(interval, nodes, np.ones((len(nodes), 1)))


def test_integrate_constant_is_exact():
    f = constant([0.3 + 0.4j, 1.0])
    assert np.allclose(integrate_vector(f, DEFAULT_RULE), [0.3 + 0.4j, 1.0])
    assert integrate_norm(f, DEFAULT_RULE) == pytest.approx(math.sqrt(0.25 + 1.0))


def test_integrate_vector_matches_antiderivative():
    f = circle_arc(0.0, math.pi / 3, 257)
    got = integrate_vector(f, ON_NODE_SIMPSON)[0]
    assert got == pytest.approx(circle_integral(0.0, math.pi / 3), abs=1e-9)
    assert got.real == pytest.approx(math.sqrt(3) / 2, abs=1e-9)
    assert got.imag == pytest.approx(0.5, abs=1e-9)


def test_integrate_vector_subinterval_modulus():
    f = circle_arc(math.pi / 6, math.pi / 3, 257)
    got = integrate_vector(f, ON_NODE_SIMPSON)[0]
    assert abs(got) == pytest.approx(2 * math.sin(math.pi / 12), rel=1e-9)


def test_integrate_norm_unit_modulus():
    f = circle_arc(0.0, math.pi / 3, 257)
    assert integrate_norm(f, ON_NODE_SIMPSON) == pytest.approx(math.pi / 3, rel=1e-9)


def test_integrate_norm_constant_complex_scalar():
    f = constant([(1 + 1j) / 2])
    assert integrate_norm(f, DEFAULT_RULE) == pytest.approx(math.sqrt(2) / 2, rel=1e-12)


def test_trapezoid_exact_for_piecewise_linear():
    nodes = np.array([0.0, 0.25, 0.7, 1.0])
    values = np.array([[0.0 + 0j], [1.0 + 2j], [0.5 - 1j], [2.0 + 0j]])
    f = GridFunction(Interval(0, 1), nodes, values)
    exact = sum(
        (nodes[k + 1] - nodes[k]) * (values[k, 0] + values[k + 1, 0]) / 2.0 for k in range(3)
    )
    assert integrate_vector(f, TRAPEZOID)[0] == pytest.approx(exact, abs=1e-15)


def test_constleft_quadrature_is_exact_for_steps():
    nodes = np.array([0.0, 0.25, 0.7, 1.0])
    values = np.array([[1.0 + 0j], [-2.0 + 1j], [4.0 + 0j], [0.0 + 0j]])
    f = GridFunction(Interval(0, 1), nodes, values, interpolation="constleft")
    exact = sum((nodes[k + 1] - nodes[k]) * values[k, 0] for k in range(3))
    for rule in (DEFAULT_RULE, TRAPEZOID, ON_NODE_SIMPSON):
        assert integrate_vector(f, rule)[0] == pytest.approx(exact, abs=1e-15)


def test_simpson_convergence_order_at_least_3_5():
    errors = []
    for n_intervals in (32, 64, 128, 256):
        f = circle_arc(0.0, math.pi / 3, n_intervals + 1)
        err = abs(integrate_vector(f, ON_NODE_SIMPSON)[0] - circle_integral(0.0, math.pi / 3))
        errors.append(err)
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(3)]
    assert min(orders) >= 3.5


grids = st.integers(3, 12)


@st.composite
def grid_functions(draw, d_max=3):
    n = draw(grids)
    d = draw(st.integers(1, d_max))
    a = draw(st.floats(-2.0, 1.0))
    width = draw(st.floats(0.5, 3.0))
    cell = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    re = draw(st.lists(st.lists(cell, min_size=d, max_size=d), min_size=n, max_size=n))
    im = draw(st.lists(st.lists(cell, min_size=d, max_size=d), min_size=n, max_size=n))
    values = np.asarray(re) + 1j * np.asarray(im)
    interp = draw(st.sampled_from(["linear", "constleft"]))
    return GridFunction(Interval(a, a + width), np.linspace(a, a + width, n), values, interp)


@settings(max_examples=80)
@given(grid_functions())
def test_triangle_inequality(f):
    for rule in (DEFAULT_RULE, TRAPEZOID, ON_NODE_SIMPSON):
        assert np.linalg.norm(integrate_vector(f, rule)) <= integrate_norm(f, rule) + 1e-9


@settings(max_examples=40)
@given(grid_functions(), st.lists(st.floats(-0.3, 0.3), min_size=12, max_size=12))
# a norm below 1e-154, whose raw square underflows to 0
@example(GridFunction(Interval(0.0, 1.0), np.linspace(0.0, 1.0, 3),
                      np.array([[0], [0], [4.98935839e-197j]])), [0.0] * 12)
def test_trapezoid_weights_match_the_panel_loop(f, jitter):
    h = np.diff(f.nodes)
    nodes = f.nodes + np.r_[0.0, jitter[: h.size - 1] * h[1:], 0.0]
    g = GridFunction(f.interval, nodes, f.values, "linear")
    w = np.zeros(nodes.size)
    for k in range(nodes.size - 1):  # one trapezoid per panel, in panel order
        step = np.full(2, nodes[k + 1] - nodes[k])
        step[0] = step[-1] = step[0] / 2.0
        w[k : k + 2] += step
    # the reference sums in plain Python, in the pairwise order of hilbert.row_sums
    rows = [floats(row) for row in g.values.tolist()]
    top = math.frexp(max(abs(x) for row in rows for x in row))[1]  # one scale for every value
    vector = [math.ldexp(pairwise_sum(wk * math.ldexp(row[j], -top) for wk, row in zip(w, rows)), top)
              for j in range(2 * g.dim)]
    assert np.array_equal(integrate_vector(g, TRAPEZOID).view(float), vector)
    exp = [math.frexp(max(map(abs, row)))[1] for row in rows]  # each row at its own scale
    norms = [row_norm([math.ldexp(x, -e) for x in row]) for row, e in zip(rows, exp)]
    top = max(exp)  # then all at the largest one's
    want = math.ldexp(pairwise_sum(wk * math.ldexp(n, e - top) for wk, n, e in zip(w, norms, exp)), top)
    assert integrate_norm(g, TRAPEZOID) == want


@settings(max_examples=40)
@given(grid_functions(), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_linearity_on_shared_grid(f, c_re, c_im):
    c = complex(c_re, c_im)
    g = GridFunction(f.interval, f.nodes, f.values[::-1].copy(), f.interpolation)
    combo = GridFunction(f.interval, f.nodes, c * f.values + g.values, f.interpolation)
    lhs = integrate_vector(combo, DEFAULT_RULE)
    rhs = c * integrate_vector(f, DEFAULT_RULE) + integrate_vector(g, DEFAULT_RULE)
    assert np.allclose(lhs, rhs, atol=1e-10)


def _hex(x) -> list:
    return [float.hex(v) for v in np.atleast_1d(x).view(float)]


@settings(max_examples=120)
@given(grid_functions(), st.booleans(), st.lists(st.floats(-0.3, 0.3), min_size=12, max_size=12),
       st.integers(-60, 60))
# on [0, 0.2, 1] * 2**-50 an absolute tolerance would call the grid uniform
@example(GridFunction(Interval(0.0, 1.0), [0.0, 0.2, 1.0], [[1], [2j], [3]]), False, [0.0] * 12, -50)
@example(GridFunction(Interval(0.0, 1.0), [0.0, 0.2, 1.0], [[1], [2j], [3]], "constleft"),
         False, [0.0] * 12, -50)
def test_integrals_are_homogeneous_in_t(f, jittered, jitter, k):
    nodes = f.nodes
    if jittered:
        h = np.diff(nodes)
        nodes = nodes + np.r_[0.0, jitter[: h.size - 1] * h[1:], 0.0]
    # values 0 or at least 1e-6, so no product of a weight and a value is subnormal
    values = np.round(f.values, 6)
    g = GridFunction(f.interval, nodes, values, f.interpolation)
    s = np.ldexp(nodes, k)
    scaled = GridFunction(Interval(s[0], s[-1]), s, values, f.interpolation)
    for rule in (DEFAULT_RULE, ON_NODE_SIMPSON, TRAPEZOID):
        vector = integrate_vector(g, rule).view(float)
        assert _hex(integrate_vector(scaled, rule)) == _hex(np.ldexp(vector, k))
        assert _hex(integrate_norm(scaled, rule)) == _hex(math.ldexp(integrate_norm(g, rule), k))


@given(grid_functions())
def test_evaluate_reproduces_nodes_exactly(f):
    got = evaluate_many(f, f.nodes)
    assert np.array_equal(got, f.values)


@given(grid_functions())
def test_json_round_trip(f):
    g = gridfunction_from_dict(gridfunction_to_dict(f))
    assert np.array_equal(g.nodes, f.nodes)
    assert np.array_equal(g.values, f.values)
    assert g.interpolation == f.interpolation


def test_from_dict_rejects_ragged_values():
    doc = {"a": 0.0, "b": 1.0, "nodes": [0.0, 1.0], "values": [[[1, 0]], [[1, 0], [0, 1]]]}
    with pytest.raises(ValueError, match="dimension"):
        gridfunction_from_dict(doc)


PANEL_KINDS = ("random", "short_far", "through_origin", "near_origin", "constant")


def make_panel(kind: str, d: int, scale: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints (x0, x1) in C^d of one panel of the given geometric kind."""
    rng = np.random.Generator(np.random.PCG64(seed))

    def draw():
        return scale * (rng.normal(size=d) + 1j * rng.normal(size=d))

    x0 = draw()
    if kind == "random":
        return x0, draw()
    if kind == "short_far":  # L / n ~ 1e-7
        return x0, x0 + 1e-7 * draw()
    if kind == "constant":
        return x0, x0.copy()
    x1 = -rng.uniform(0.1, 3.0) * x0  # the panel's line runs through 0
    if kind == "through_origin":
        return x0, x1
    # near_origin: shift the line off 0 by 1e-9 * scale, perpendicular to it in R^2d
    w = draw()
    w -= (np.vdot(x0, w).real / np.vdot(x0, x0).real) * x0
    w *= 1e-9 * scale / np.linalg.norm(w)
    return x0 + w, x1 + w


def mpmath_panel_integral(x0: np.ndarray, x1: np.ndarray):
    """integral_0^1 ||x0 + s (x1 - x0)|| ds by mpmath quadrature at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a = [mpmath.mpf(float(c)) for c in x0.view(float)]
        v = [mpmath.mpf(float(c)) - ai for c, ai in zip(x1.view(float), a)]
        vv = sum(vi * vi for vi in v)
        breaks = [0, 1]
        if vv > 0:  # split at the point of the line closest to 0, where ||.|| kinks
            closest = -sum(ai * vi for ai, vi in zip(a, v)) / vv
            if 0 < closest < 1:
                breaks = [0, closest, 1]
        return mpmath.quad(
            lambda s: mpmath.sqrt(sum((ai + s * vi) ** 2 for ai, vi in zip(a, v))), breaks
        )


panels = st.tuples(
    st.sampled_from(PANEL_KINDS),
    st.integers(1, 3),
    st.floats(-3.0, 3.0),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=120, deadline=None)
@given(panels)
def test_panel_norm_integral_matches_mpmath(panel):
    kind, d, log_scale, seed = panel
    x0, x1 = make_panel(kind, d, 10.0**log_scale, seed)
    got = panel_norm_integrals(x0[None], x1[None])[0]
    want = mpmath_panel_integral(x0, x1)
    assert abs((got - want) / want) <= 1e-14, (kind, got, want)


@settings(max_examples=200)
@given(panels, st.integers(-60, 60))
def test_panel_norm_integral_is_homogeneous_and_symmetric(panel, k):
    x0, x1 = make_panel(panel[0], panel[1], 10.0 ** panel[2], panel[3])
    got = panel_norm_integrals(x0[None], x1[None])[0]
    assert panel_norm_integrals(x1[None], x0[None])[0] == got
    scale = 2.0**k
    assert panel_norm_integrals(scale * x0[None], scale * x1[None])[0] == scale * got


@settings(max_examples=200)
@given(panels, st.integers(-1000, 1000))
def test_panel_norm_integral_is_homogeneous_at_extreme_scales(panel, k):
    # squares of such values under- or overflow unless the panel is rescaled first
    x0, x1 = make_panel(panel[0], panel[1], 10.0 ** panel[2], panel[3])
    got = panel_norm_integrals(x0[None], x1[None])[0]
    scale = 2.0**k
    assert panel_norm_integrals(scale * x0[None], scale * x1[None])[0] == scale * got


def test_norm_integral_of_a_tiny_ramp():
    # squares of these values underflow (giving NaN or 0) unless each panel is rescaled
    x = 1.48978995e-160j
    f = GridFunction(Interval(0, 1), [0.0, 0.5, 1.0], [[0], [0], [x]])
    assert integrate_norm(f) == pytest.approx(abs(x) / 4, rel=1e-15)
    assert abs(integrate_vector(f)[0]) <= integrate_norm(f)
    x0, x1 = np.array([[1.0 + 0j]]), np.array([[2.0 + 0.1j]])
    for scale in (1e-170, 1e300):
        got = panel_norm_integrals(scale * x0, scale * x1)[0]
        assert got == pytest.approx(scale * panel_norm_integrals(x0, x1)[0], rel=1e-15)


@pytest.mark.parametrize("offset", [1e-150, 1e-154, 1e-157, 1e-161, 1e-170])
def test_panel_norm_integral_of_a_panel_grazing_0(offset):
    # h^2 is subnormal from about 1e-154 down, and the log term's ratio passes the float range
    x0, x1 = np.array([1.0 + 0j, 0.5]), np.array([-1.0 + offset * 1j, -0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = panel_norm_integrals(x0[None], x1[None])[0]
    assert abs(got - mpmath_panel_integral(x0, x1)) <= 1e-15 * got


@settings(max_examples=200)
@given(panels)
def test_panel_norm_integral_dominates_the_midpoint_norm(panel):
    x0, x1 = make_panel(panel[0], panel[1], 10.0 ** panel[2], panel[3])
    mid = (0.5 * x0 + 0.5 * x1)[None]
    # the package's own norm, as integrate_norm takes it at the nodes
    assert panel_norm_integrals(x0[None], x1[None])[0] >= row_norm(mid[0].tolist())


def test_model_rule_is_exact_for_any_refinement():
    f = sample(lambda t: cmath.exp(1j * t) * (1.5 - t), Interval(math.pi / 6, math.pi / 3), 33)
    jitter = np.r_[0.0, 0.003 * np.sin(np.arange(1, 32)), 0.0]
    jittered = GridFunction(f.interval, f.nodes + jitter, f.values)
    for g in (f, jittered):
        reports = {
            repr(bound_report_to_dict(certify(g, Cone(0.2, 1.2), QuadratureRule(kind, m))))
            for kind in ("composite-simpson", "trapezoid-on-nodes")
            for m in (2, 8, 64)
        }
        assert len(reports) == 1
        assert np.array_equal(integrate_vector(g, DEFAULT_RULE), integrate_vector(g, TRAPEZOID))
    # Simpson cannot run on a non-uniform grid, so refinement 1 takes the model rule there
    assert integrate_norm(jittered, ON_NODE_SIMPSON) == integrate_norm(jittered, DEFAULT_RULE)


def per_element_from_dict(d: dict) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and values as the decoder before the codec read them, one call per number."""
    nodes = [float(t) for t in d["nodes"]]
    values = [[complex(p[0], p[1]) for p in row] for row in d["values"]]
    return np.asarray(nodes), np.asarray(values)


WIRE_EDGES = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
              2**53, -(2**53), 0]
wire_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**53), 2**53),
    st.sampled_from(WIRE_EDGES),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.data())
def test_from_dict_is_bit_identical_to_the_per_element_decoder(d, data):
    nodes = data.draw(st.lists(wire_numbers, min_size=2, max_size=8, unique_by=float))
    nodes.sort(key=float)
    pair = st.lists(wire_numbers, min_size=2, max_size=2)
    values = data.draw(st.lists(st.lists(pair, min_size=d, max_size=d),
                                min_size=len(nodes), max_size=len(nodes)))
    doc = {"a": nodes[0], "b": nodes[-1], "nodes": nodes, "values": values}
    f = gridfunction_from_dict(doc)
    want_nodes, want_values = per_element_from_dict(doc)
    assert np.array_equal(f.nodes.view(np.uint64), want_nodes.view(np.uint64))
    assert np.array_equal(f.values.view(float).view(np.uint64),
                          want_values.view(float).view(np.uint64))


@pytest.mark.parametrize(
    "change, field",
    [
        ({"nodes": [0, "0.5", 1]}, "nodes"),
        ({"a": "0"}, "a"),
        ({"values": [[[1, 0]], [[True, 0]], [[1, 0]]]}, "values"),
        ({"values": [[[0.6, 0.8, 99]]] * 3}, "values"),
        ({"values": [[], [], []]}, "values"),
        ({"nodes": [0, 10**400, 1]}, "nodes"),
        ({"b": 10**400}, "b"),
        ({"values": [[[10**400, 0]]] * 3}, "values"),
    ],
)
def test_from_dict_holds_the_number_rule(change, field):
    doc = {"a": 0, "b": 1, "nodes": [0, 0.5, 1], "values": [[[1, 0]]] * 3}
    with pytest.raises(ValueError, match=rf"^{field}: "):
        gridfunction_from_dict(dict(doc, **change))
