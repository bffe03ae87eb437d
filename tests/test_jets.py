import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchctl.fields import Curve
from matchctl.jets import (Jet2, as_jet, cos, exp, fd_value_grad_hess, jet_vars, log,
                           sin, solve_generic, sqrt, value_grad_hess, value_of)


def compound(u):
    x, y, z = u[0], u[1], u[2]
    return sin(x * y) + cos(z) * sqrt(2.0 + x * x) - y / (2.0 + z * z) + exp(0.3 * x)


def test_jet_matches_finite_differences():
    u0 = np.array([0.4, -0.7, 1.1])
    jets = jet_vars(u0)
    out = compound(jets)
    vals, grads, hess = fd_value_grad_hess(lambda u: np.array([compound(list(u))]), u0)
    assert out.f == pytest.approx(vals[0], rel=1e-12)
    assert np.abs(out.g - grads[0]).max() < 1e-8
    assert np.abs(out.h - hess[0]).max() < 1e-5


def test_value_grad_hess_backends_agree():
    def fn(u):
        return [compound(u), u[0] * u[2] - sin(u[1]), exp(u[1]) / (1.5 + cos(u[2]))]

    u0 = np.array([0.4, -0.7, 1.1])
    vals, grads, hess = value_grad_hess(fn, u0)
    vals_fd, grads_fd, hess_fd = value_grad_hess(fn, u0, backend="fd")
    assert vals.shape == (3,) and grads.shape == (3, 3) and hess.shape == (3, 3, 3)
    assert np.array_equal(vals, vals_fd)
    assert np.abs(grads - grads_fd).max() < 1e-8
    assert np.abs(hess - hess_fd).max() < 1e-5


def test_value_grad_hess_float_output_is_constant():
    vals, grads, hess = value_grad_hess(lambda u: [u[0] * u[1], 2.5], [0.3, -1.2])
    assert vals[1] == 2.5
    assert np.array_equal(grads[1], [0.0, 0.0])
    assert np.array_equal(hess[1], np.zeros((2, 2)))
    assert np.array_equal(grads[0], [-1.2, 0.3])


def test_seeding_and_constants():
    jets = jet_vars([2.0, 3.0])
    assert jets[0].f == 2.0
    assert np.array_equal(jets[0].g, [1.0, 0.0])
    c = as_jet(5.0, 2)
    assert c.f == 5.0 and np.all(c.g == 0.0)
    assert value_of(jets[1]) == 3.0
    assert value_of(7.5) == 7.5


def test_division_and_log():
    x, y = jet_vars([1.5, 0.5])
    r = log(x / y) - (log(x) - log(y))
    assert abs(r.f) < 1e-15
    assert np.abs(r.g).max() < 1e-14
    assert np.abs(r.h).max() < 1e-13


def test_hessian_symmetry():
    jets = jet_vars([0.3, 0.9, -0.2])
    out = compound(jets)
    assert np.abs(out.h - out.h.T).max() == 0.0


@settings(max_examples=50, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(0.5, 3))
def test_multiply_divide_roundtrip(a, b):
    (x,) = jet_vars([a])
    y = as_jet(b, 1)
    r = (x * y) / y
    assert r.f == pytest.approx(a, abs=1e-12)
    assert r.g[0] == pytest.approx(1.0, abs=1e-12)


def test_pow():
    (x,) = jet_vars([1.7])
    r = x ** 3
    assert r.f == pytest.approx(1.7 ** 3)
    assert r.g[0] == pytest.approx(3 * 1.7 ** 2)
    assert r.h[0, 0] == pytest.approx(6 * 1.7)


def test_solve_generic_floats():
    A = [[2.0, 1.0], [1.0, 3.0]]
    b = [1.0, 2.0]
    sol = solve_generic(A, b)
    assert np.allclose(sol, np.linalg.solve(np.array(A), np.array(b)))


def test_solve_generic_jets_derivative():
    # solve [[a, 1], [1, 2]] u = (1, 0); du/da by jets vs closed form
    (a,) = jet_vars([3.0])
    A = [[a, 1.0], [1.0, 2.0]]
    u = solve_generic(A, [1.0, 0.0])
    det = 2 * 3.0 - 1.0
    assert u[0].f == pytest.approx(2.0 / det)
    # u0(a) = 2/(2a-1): du0/da = -4/(2a-1)^2
    assert u[0].g[0] == pytest.approx(-4.0 / det ** 2)


def test_solve_generic_singular():
    with pytest.raises(ZeroDivisionError):
        solve_generic([[0.0, 0.0], [0.0, 0.0]], [1.0, 1.0])


def test_trig_on_floats_passthrough():
    assert sin(0.3) == math.sin(0.3)
    assert cos(0.3) == math.cos(0.3)
    assert sqrt(2.0) == math.sqrt(2.0)


def test_trig_on_arrays_is_numpy_bit_for_bit():
    x = np.random.default_rng(3).uniform(-4.0, 4.0, 1000)
    assert sin(x).tobytes() == np.sin(x).tobytes()
    assert cos(x).tobytes() == np.cos(x).tobytes()
    assert sqrt(np.abs(x)).tobytes() == np.sqrt(np.abs(x)).tobytes()


def every_function(u):
    x, y, z = u[0], u[1], u[2]
    return (sin(x * y) + cos(z) * sqrt(2.0 + x * x) - y / (2.0 + z * z) + exp(0.3 * x)
            + log(3.0 + y) * z ** 3 + 1.5 / (2.0 + x * z) + (2.5 + z) ** 0.5)


KNOTS = np.linspace(-2.0, 2.0, 9)
CURVE = Curve(KNOTS, np.sin(3.0 * KNOTS))


def one_seed_function(x):
    return (sin(x * x) * cos(x) / (2.0 + x * x) + sqrt(2.0 + x) * exp(0.3 * x)
            + log(3.0 + x) * (2.5 + x) ** 0.5 + 1.5 / (2.0 + x) + CURVE(x) * x ** 3)


def test_array_jets_equal_scalar_jets_pointwise():
    # point axis last: f (N,), g (m, N), h (m, m, N), each point the floats of
    # a scalar jet, Hessian cross terms included; and over one seed, each point
    # also the floats of a jet whose gradient and Hessian are float parts
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, (3, 200))
    seeds = jet_vars(pts)
    assert seeds[1].f.shape == (200,) and seeds[1].g.shape == (3, 200)
    assert np.array_equal(seeds[1].g[1], np.ones(200)) and not seeds[1].g[0].any()
    out = every_function(seeds)
    assert out.f.shape == (200,) and out.g.shape == (3, 200) and out.h.shape == (3, 3, 200)
    one = one_seed_function(jet_vars(pts[:1])[0])
    assert one.g.shape == (1, 200) and one.h.shape == (1, 1, 200)
    for k in range(pts.shape[1]):
        ref = every_function(jet_vars(pts[:, k]))
        assert out.f[k] == ref.f
        assert out.g[:, k].tobytes() == ref.g.tobytes()
        assert out.h[:, :, k].tobytes() == ref.h.tobytes()
        ref = one_seed_function(jet_vars(pts[:1, k])[0])
        flt = one_seed_function(Jet2(float(pts[0, k]), 1.0, 0.0))
        assert type(flt.g) is float and type(flt.h) is float and flt.m == 1
        assert flt.f == ref.f == one.f[k]
        assert np.array([flt.g]).tobytes() == ref.g.tobytes() == one.g[:, k].tobytes()
        assert np.array([[flt.h]]).tobytes() == ref.h.tobytes() == one.h[:, :, k].tobytes()


def test_array_exp_log_are_libm_elementwise():
    x = np.random.default_rng(4).uniform(0.1, 5.0, (40, 50))
    assert exp(x).tobytes() == np.array([[math.exp(v) for v in row] for row in x]).tobytes()
    assert log(x).tobytes() == np.array([[math.log(v) for v in row] for row in x]).tobytes()


def test_array_jet_division_by_a_zero_value_part_raises():
    (x,) = jet_vars(np.array([[0.5, 0.0, -1.0]]))
    with pytest.raises(ZeroDivisionError):
        1.0 / x


def pivot_system(u):
    """A 3 x 3 system over jets and floats whose first pivot row depends on
    the point: row 0 for |x| large, row 1 for |x y| large, else row 2."""
    x, y = u[0], u[1]
    A = [[x, 1.0, y], [y * x, 2.0, 0.5], [1.0, x - y, 3.0]]
    return A, [1.0, x, y * y]


def test_solve_generic_pivots_each_point_on_its_own():
    pts = np.array([[3.0, 0.2, 0.1, -4.0, 0.5], [0.1, 9.0, 0.3, 2.0, -0.5]])
    A, b = pivot_system(jet_vars(pts))
    out = solve_generic(A, b)
    for k in range(pts.shape[1]):
        ref = solve_generic(*pivot_system(jet_vars(pts[:, k])))
        for o, r in zip(out, ref):
            assert o.f[k] == r.f
            assert o.g[:, k].tobytes() == r.g.tobytes()
            assert o.h[:, :, k].tobytes() == r.h.tobytes()
    # float entries at N points: the same pivots over arrays of floats
    floats = solve_generic(*pivot_system(list(pts)))
    for k in range(pts.shape[1]):
        ref = solve_generic(*pivot_system(list(pts[:, k])))
        assert [v[k] for v in floats] == ref


def test_solve_generic_names_its_singular_point():
    (x,) = jet_vars(np.array([[0.5, 2.0, 1.0, 1.0]]))
    with pytest.raises(ZeroDivisionError, match="at point 2$"):
        solve_generic([[x - 1.0, 0.0], [0.0, x]], [1.0, 1.0])


def power_free_function(u):
    # numpy's power on a float array can differ from a float's by an ulp, so
    # a float pass over arrays is pointwise only without ``**`` on floats
    x, y, z = u[0], u[1], u[2]
    return (sin(x * y) + cos(z) * sqrt(2.0 + x * x) - y / (2.0 + z * z) + exp(0.3 * x)
            + log(3.0 + y) * z * z * z + 1.5 / (2.0 + x * z) + sqrt(2.5 + z))


@pytest.mark.parametrize("backend, function", [("jet", every_function),
                                               ("fd", power_free_function)])
def test_value_grad_hess_over_points_is_pointwise(backend, function):
    pts = np.random.default_rng(6).uniform(-1.0, 1.0, (3, 20))
    fn = lambda u: [function(u), u[0] * u[2], 2.5]
    vals, grads, hess = value_grad_hess(fn, pts, backend)
    assert vals.shape == (3, 20) and grads.shape == (3, 3, 20) and hess.shape == (3, 3, 3, 20)
    for k in range(pts.shape[1]):
        ref = value_grad_hess(fn, pts[:, k], backend)
        for a, r in zip((vals, grads, hess), ref):
            assert a[..., k].tobytes() == r.tobytes()
