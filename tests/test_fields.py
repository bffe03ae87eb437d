import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matchctl.fields as fl
from matchctl.jets import fd_value_grad_hess, jet_vars


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


def test_gradient_on_jets_value_and_gradient_are_d1_d2():
    f = build_sample()
    u = np.array([0.9, 0.1])
    parts = fl.gradient(f, jet_vars(u))
    for i, p in enumerate(parts):
        assert p.f == f.d1(u)[i]
        assert np.array_equal(p.g, f.d2(u)[i])
        assert np.array_equal(p.h, p.h.T)


def test_gradient_on_mixed_coordinates_promotes_floats():
    f = build_sample()
    (x,) = jet_vars([0.5])
    parts = fl.gradient(f, [x, 0.25])
    d2 = f.d2(np.array([0.5, 0.25]))
    assert [p.g[0] for p in parts] == [d2[0, 0], d2[1, 0]]


def test_field_eval_mixed_inputs():
    f = build_sample()
    (x,) = jet_vars([0.5])
    out = fl.field_eval(f, [x, 0.25])
    assert out.f == pytest.approx(f.value(np.array([0.5, 0.25])))
    plain = fl.field_eval(f, [0.5, 0.25])
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
