import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matchctl.fields as fl
from matchctl.jets import chain, fd_value_grad_hess, jet_vars


def build_sample():
    x = fl.coordinate(0, 2)
    y = fl.coordinate(1, 2)
    return fl.sin_of(x * y) + 0.5 * fl.cos_of(x) * fl.sqrt_of(2.0 + y * y) - x / (3.0 + y * y)


def deriv_mismatch(field, u):
    _, g_fd, h_fd = fd_value_grad_hess(lambda v: np.array([field.value(v)]), u)
    return (np.abs(field.d1(u) - g_fd[0]).max(),
            np.abs(field.d2(u) - h_fd[0]).max())


def test_algebra_derivatives_match_fd():
    f = build_sample()
    for u in ([0.3, -0.8], [1.1, 0.2], [-0.5, 0.9]):
        e1, e2 = deriv_mismatch(f, np.array(u))
        assert e1 < 1e-8
        assert e2 < 1e-5


def test_d2_symmetric():
    f = build_sample()
    h = f.d2(np.array([0.7, -0.3]))
    assert np.abs(h - h.T).max() < 1e-14


def test_constant_coordinate_linear():
    c = fl.constant(4.0, 3)
    assert c(np.zeros(3)) == 4.0
    assert np.all(c.d1(np.zeros(3)) == 0.0)
    x1 = fl.coordinate(1, 3)
    assert x1(np.array([5.0, 6.0, 7.0])) == 6.0
    lin = fl.linear([1.0, 2.0, 3.0], 0.5, 3)
    u = np.array([1.0, 1.0, 1.0])
    assert lin(u) == pytest.approx(6.5)
    assert np.allclose(lin.d1(u), [1.0, 2.0, 3.0])


def test_eval_jet_chain_rule():
    f = build_sample()
    jets = jet_vars([0.3, -0.8])
    out = f.eval_jet(jets)
    assert out.f == pytest.approx(f.value(np.array([0.3, -0.8])))
    assert np.allclose(out.g, f.d1(np.array([0.3, -0.8])))
    assert np.allclose(out.h, f.d2(np.array([0.3, -0.8])))


def test_eval_jet_through_composition():
    # seed s, evaluate f at (s^2, 1 - s): chain through nontrivial jets
    f = build_sample()
    (s,) = jet_vars([0.6])
    out = f.eval_jet([s * s, 1.0 - s])

    def scalar(sv):
        return f.value(np.array([sv ** 2, 1.0 - sv]))

    _, g_fd, h_fd = fd_value_grad_hess(lambda u: np.array([scalar(u[0])]), np.array([0.6]))
    assert out.g[0] == pytest.approx(g_fd[0, 0], abs=1e-8)
    assert out.h[0, 0] == pytest.approx(h_fd[0, 0, 0], abs=1e-4)


def test_gradient_on_floats_is_d1():
    f = build_sample()
    u = np.array([0.9, 0.1])
    assert np.array_equal(fl.gradient(f, list(u)), f.d1(u))
    assert fl.gradient(fl.constant(2.0, 2), [0.9, 0.1]) == [0.0, 0.0]


def test_support_sets_follow_the_algebra():
    x, y, z = (fl.coordinate(i, 3) for i in range(3))
    assert z.support == (2,)
    assert fl.constant(1.5, 3).support == ()
    assert fl.linear([0.5, 0.0, -2.0], 1.0, 3).support == (0, 2)
    assert fl.cos_of(y).support == (-y).support == (y / 2.0).support == (2.0 - y).support == (1,)
    assert (z * x).support == (x + z).support == (z - 3.0 * x).support == (0, 2)
    assert (x + fl.constant(1.0, 3)).support == (0,)
    assert fl.SmoothField(3, lambda u: u[0]).support == (0, 1, 2)


@pytest.mark.parametrize("ns", [1, 2])
def test_support_seeded_gradient_of_builtin_potential_is_d1(ns):
    # the builtin V reads only the shape coordinates: its gradient at a float
    # point seeds those alone (one float-part seed for one), and its group
    # partials are exact zeros
    from matchctl.model import Dims, synthetic_sm_system
    V = synthetic_sm_system(1, Dims(ns, 2))[0].V
    assert V.support == tuple(range(ns))
    for q in np.random.default_rng(11).uniform(-2.0, 2.0, size=(200, ns + 2)):
        g, d1 = fl.gradient(V, q.tolist()), V.d1(q)
        assert g[:ns] == d1[:ns].tolist() and g[ns:] == [0.0, 0.0]


def test_gradient_on_jets_value_and_gradient_are_d1_d2():
    f = build_sample()
    u = np.array([0.9, 0.1])
    parts = fl.gradient(f, jet_vars(u))
    for i, p in enumerate(parts):
        assert p.f == f.d1(u)[i]
        assert np.array_equal(p.g, f.d2(u)[i])
        assert np.array_equal(p.h, p.h.T, equal_nan=True)


def test_gradient_on_mixed_coordinates_promotes_floats():
    f = build_sample()
    (x,) = jet_vars([0.5])
    parts = fl.gradient(f, [x, 0.25])
    d2 = f.d2(np.array([0.5, 0.25]))
    assert [p.g[0] for p in parts] == [d2[0, 0], d2[1, 0]]


def test_field_eval_mixed_inputs():
    f = build_sample()
    (x,) = jet_vars([0.5])
    # jet arithmetic takes float operands, so fn runs on mixed coordinates
    out = f.fn([x, 0.25])
    assert out.f == pytest.approx(f.value(np.array([0.5, 0.25])))
    plain = f.fn([0.5, 0.25])
    assert plain == pytest.approx(out.f)


def test_arity_mismatch_raises():
    with pytest.raises(ValueError):
        fl.coordinate(0, 2) + fl.coordinate(0, 3)


@settings(max_examples=30, deadline=None)
@given(a=st.floats(-1.2, 1.2), b=st.floats(-1.2, 1.2))
def test_product_rule_pointwise(a, b):
    x = fl.coordinate(0, 2)
    y = fl.coordinate(1, 2)
    f = fl.sin_of(x) * fl.cos_of(y)
    u = np.array([a, b])
    assert f.d1(u)[0] == pytest.approx(np.cos(a) * np.cos(b), abs=1e-12)
    assert f.d1(u)[1] == pytest.approx(-np.sin(a) * np.sin(b), abs=1e-12)


def test_spline_reader_is_scipy_bit_for_bit():
    from scipy.interpolate import CubicSpline

    rng = np.random.default_rng(11)
    xs = np.linspace(-1.5, 1.5, 201)
    ys = np.sin(3.0 * xs) + 1e-3 * rng.normal(size=xs.size)
    spline = CubicSpline(xs, ys)
    at = fl.spline_reader(spline)
    # every knot (both ends included), interior points, extrapolation on both
    # sides and both zeros
    points = (xs.tolist() + rng.uniform(-1.5, 1.5, 2000).tolist()
              + rng.uniform(-3.0, -1.5, 200).tolist() + rng.uniform(1.5, 3.0, 200).tolist()
              + [0.0, -0.0])
    for nu in (0, 1, 2):
        ours = np.array([at(v, nu) for v in points])
        ref = np.array([float(spline(v, nu)) for v in points])
        assert ours.tobytes() == ref.tobytes()
        assert np.isnan(at(float("nan"), nu)) and np.isnan(spline(np.nan, nu))
    # a Curve on the same data reads floats and arrays bit for bit as scipy,
    # and a jet through the chain rule with the spline's own derivatives
    curve = fl.Curve(xs, ys)
    ref = np.array([float(spline(v)) for v in points])
    assert np.array([curve(v) for v in points]).tobytes() == ref.tobytes()
    assert curve(np.array(points)).tobytes() == spline(np.array(points)).tobytes()
    for v in rng.uniform(-3.0, 3.0, 50).tolist() + [0.0]:
        u, w = jet_vars([v, 0.3])
        x = 2.0 * u + 0.1 * w * w
        got = curve(x)
        want = chain(x, *(float(spline(x.f, nu)) for nu in (0, 1, 2)))
        assert (got.f, got.g.tobytes(), got.h.tobytes()) \
            == (want.f, want.g.tobytes(), want.h.tobytes())
    # the list rows, on uniform and non-uniform knots, of a scipy spline and of
    # a Curve: bit for bit at NaN, +-inf, the exact knots and points in both
    # extrapolated end intervals, NaNs included
    for uniform in (True, False):
        knots = _knots(rng, 37, uniform)
        vals = _values(rng, 37)
        span = knots[-1] - knots[0]
        probes = ([math.nan, math.inf, -math.inf] + knots.tolist()
                  + rng.uniform(knots[0], knots[-1], 300).tolist()
                  + (knots[0] - span * rng.random(50)).tolist()
                  + (knots[-1] + span * rng.random(50)).tolist())
        spline = CubicSpline(knots, vals)
        for reader in (fl.spline_reader(spline), fl.Curve(knots, vals).at):
            for nu in (0, 1, 2):
                ours = np.array([reader(v, nu) for v in probes])
                ref = np.array([float(spline(v, nu)) for v in probes])
                assert ours.tobytes() == ref.tobytes(), (uniform, nu)


def _knots(rng, n, uniform):
    if uniform:
        return np.linspace(rng.uniform(-3.0, 0.0), rng.uniform(0.1, 3.0), n)
    return rng.uniform(-5.0, 5.0) + np.cumsum(rng.uniform(1e-3, 1.0, n))


def _values(rng, n):
    ys = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
    ys[rng.random(n) < 0.1] = -0.0
    return ys


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "non-uniform"])
def test_curve_coefficients_are_scipy_bit_for_bit(uniform):
    from scipy.interpolate import CubicSpline

    rng = np.random.default_rng(29 + uniform)
    # two knots (the clamped-slope system), three (the parabola system) and
    # the not-a-knot tridiagonal system up to the curves' 801 knots
    sizes = [2] * 300 + [3] * 300 + rng.integers(4, 802, 60).tolist() + [4, 801]
    for n in sizes:
        xs = _knots(rng, n, uniform)
        ys = _values(rng, n)
        curve = fl.Curve(xs, ys)
        spline = CubicSpline(xs, ys)
        assert curve.x.tobytes() == spline.x.tobytes()
        assert curve.c.tobytes() == spline.c.tobytes(), n


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "non-uniform"])
def test_curve_array_reads_are_scipy_bit_for_bit(uniform):
    from scipy.interpolate import CubicSpline

    rng = np.random.default_rng(31 + uniform)
    for n in (2, 3, 4, 5, 57, 801):
        xs = _knots(rng, n, uniform)
        ys = _values(rng, n)
        curve = fl.Curve(xs, ys)
        spline = CubicSpline(xs, ys)
        # every knot, interior points, extrapolation on both sides, both
        # zeros, both infinities (silent, as in scipy) and NaN
        v = np.concatenate([xs, rng.uniform(xs[0], xs[-1], 300),
                            rng.uniform(xs[0] - 2.0, xs[0], 50),
                            rng.uniform(xs[-1], xs[-1] + 2.0, 50),
                            [0.0, -0.0, np.inf, -np.inf, np.nan]])
        for nu in (0, 1, 2):
            assert curve.read(v, nu).tobytes() == spline(v, nu).tobytes()
            assert np.isnan(curve.read(np.array([-np.nan]), nu)).all()
        assert curve(v).tobytes() == spline(v).tobytes()
        # a jet over an array of points reads value, slope and curvature from
        # one interval search
        v = v[:-3]
        u, w = jet_vars([v, np.full(v.shape, 0.3)])
        x = 2.0 * u + 0.1 * w * w
        got = curve(x)
        want = chain(x, *(spline(x.f, nu) for nu in (0, 1, 2)))
        assert (got.f.tobytes(), got.g.tobytes(), got.h.tobytes()) \
            == (want.f.tobytes(), want.g.tobytes(), want.h.tobytes())
