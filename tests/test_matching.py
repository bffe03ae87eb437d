import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matchctl.fields as fl
from conftest import random_system, sm_shaping
from matchctl.fields import SmoothField
from matchctl.jets import Jet2
from matchctl.lagrangian import ShapingParams, scalar_sigma_matrix
from matchctl.matching import (TauIntegrationError, default_grid,
                               generalized_matching_residuals, integrate_new_tau,
                               matching_residuals, matrix_inverse_fields,
                               new_tau_closed_form, new_tau_ode_residual,
                               simplified_matching_residuals, sm3_tau, check_on_grid)
from matchctl.model import (CartpoleParams, Dims, build_mechanical_system, cartpole_system,
                            incline_system, synthetic_sm_system)


def uncoupled_system(group_constant=True):
    """g_sg = 0; group block optionally x-dependent."""
    dims = Dims(1, 1)
    x = fl.coordinate(0, 1)
    g_gg = [[fl.constant(1.0, 1) if group_constant else 1.5 + 0.3 * fl.sin_of(x)]]
    return build_mechanical_system(dims, [[fl.constant(1.0, 1)]],
                                   [[fl.constant(0.0, 1)]], g_gg, fl.constant(0.0, 2))


# ---------------------------------------------------------------------------
# condition checkers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dims", [Dims(1, 1), Dims(1, 2), Dims(2, 1)])
def test_sm_structure_implies_full_matching(dims):
    for seed in (0, 1):
        sys_, shp = sm_shaping(seed, dims)
        for x in default_grid(-1.0, 1.0, 9):
            rep = matching_residuals(sys_, shp, np.full(dims.n_shape, x))
            assert rep.overall_pass
            assert rep.max_value() < 1e-12


def test_new_tau_violates_first_condition(reference_params, cartpole):
    tau = new_tau_closed_form(cartpole, 35.0)
    shp = ShapingParams(tau=((tau,),), sigma=scalar_sigma_matrix(cartpole, 1.0))
    rep = matching_residuals(cartpole, shp, np.array([0.0]))
    assert rep.entry("M1").value > 0.1
    # sanity of the arithmetic: tau(0) vs the first-condition solution
    assert tau.value(np.array([0.0])) == pytest.approx(1.86766, abs=1e-4)
    assert -(1.0 / 1.0) * reference_params.beta / reference_params.gamma == pytest.approx(
        -0.0519, abs=1e-4)


def test_zero_tau_uncoupled():
    sys_c = uncoupled_system(group_constant=True)
    shp = ShapingParams(tau=((fl.constant(0.0, 1),),), sigma=np.array([[1.0]]))
    rep = matching_residuals(sys_c, shp, np.array([0.4]))
    assert rep.value("M1") == 0.0
    assert rep.value("M3") == 0.0
    assert rep.value("M2") == 0.0
    sys_v = uncoupled_system(group_constant=False)
    rep_v = matching_residuals(sys_v, shp, np.array([0.4]))
    assert rep_v.value("M2") > 0.0


def test_simplified_cartpole_trivial_entries(cartpole):
    shp = ShapingParams(tau=sm3_tau(cartpole, 1.0),
                        sigma=scalar_sigma_matrix(cartpole, 1.0))
    rep = simplified_matching_residuals(cartpole, shp, np.array([0.6]))
    assert rep.value("SM2") == 0.0
    assert rep.value("SM4") == 0.0
    assert rep.entry("SM1").passed
    assert rep.entry("SM3").passed
    assert rep.entry("SM5").skipped


def test_simplified_incline_sm5(incline_params):
    sys_ = incline_system(incline_params)
    shp = ShapingParams(tau=sm3_tau(sys_, 1.0), sigma=scalar_sigma_matrix(sys_, 1.0))
    rep = simplified_matching_residuals(sys_, shp, np.array([0.3]))
    assert not rep.entry("SM5").skipped
    assert rep.value("SM5") == 0.0


def test_simplified_nonconstant_group_block():
    sys_ = uncoupled_system(group_constant=False)
    shp = ShapingParams(tau=((fl.constant(0.0, 1),),), sigma=np.array([[1.5]]))
    x = np.array([0.4])
    rep = simplified_matching_residuals(sys_, shp, x)
    expect = abs(0.3 * math.cos(0.4))     # d/dx of the group entry
    assert rep.entry("SM2").raw == pytest.approx(expect, rel=1e-12)


def test_sigma_not_scalar_skips_sm3():
    sys_, _ = synthetic_sm_system(2, Dims(1, 2))
    bad_sigma = np.diag([1.0, 7.0]) + sys_.ggg(np.zeros(1)) * 0
    shp = ShapingParams(tau=((fl.constant(0.0, 1), ), (fl.constant(0.0, 1),)),
                        sigma=bad_sigma)
    rep = simplified_matching_residuals(sys_, shp, np.array([0.2]))
    assert not rep.entry("SM1").passed
    assert rep.entry("SM3").skipped


def test_generalized_reduces_when_vertical_unchanged():
    sys_, shp = sm_shaping(4, Dims(1, 2))
    explicit = ShapingParams(tau=shp.tau, sigma=shp.sigma,
                             g_rho=sys_.ggg(np.zeros(1)))
    for x in (-0.8, 0.1, 0.9):
        rep = generalized_matching_residuals(sys_, explicit, np.array([x]))
        assert rep.overall_pass
        assert rep.max_value() < 1e-12


def test_generalized_scalar_rho_constant_varpi(incline_params):
    sys_ = incline_system(incline_params)
    shp = ShapingParams(tau=sm3_tau(sys_, 1.0), sigma=scalar_sigma_matrix(sys_, 1.0),
                        rho=2.0)
    rep = generalized_matching_residuals(sys_, shp, np.array([0.4]))
    assert rep.value("GM3") == 0.0


def test_generalized_nonconstant_varpi():
    sys_ = uncoupled_system(group_constant=False)
    shp = ShapingParams(tau=((fl.constant(0.0, 1),),), sigma=np.array([[1.0]]),
                        g_rho=np.array([[2.0]]))
    rep = generalized_matching_residuals(sys_, shp, np.array([0.4]))
    assert rep.value("GM3") > 0.0


def test_check_on_grid_merges(cartpole):
    shp = ShapingParams(tau=sm3_tau(cartpole, 1.0),
                        sigma=scalar_sigma_matrix(cartpole, 1.0))
    grid = [np.array([x]) for x in default_grid()]
    rep = check_on_grid(matching_residuals, cartpole, shp, grid)
    assert rep.overall_pass


# ---------------------------------------------------------------------------
# tau synthesis
# ---------------------------------------------------------------------------

def test_sm3_tau_values(reference_params, cartpole, incline_params):
    tau = sm3_tau(cartpole, 1.0)
    p = reference_params
    for x in (-0.5, 0.0, 0.8):
        assert tau[0][0].value(np.array([x])) == pytest.approx(
            -p.beta * math.cos(x) / p.gamma, rel=1e-12)
    inc = incline_system(incline_params)
    tau_i = sm3_tau(inc, 1.7)
    for x in (-0.5, 0.3):
        assert tau_i[0][0].value(np.array([x])) == pytest.approx(
            -p.beta * math.cos(x - incline_params.psi) / (p.gamma * 1.7), rel=1e-12)


def test_sm3_tau_zero_coupling():
    sys_ = uncoupled_system()
    tau = sm3_tau(sys_, 2.0)
    assert tau[0][0].value(np.array([0.7])) == 0.0
    with pytest.raises(ValueError):
        sm3_tau(sys_, 0.0)


def test_matrix_inverse_fields_derivatives():
    sys_, _ = synthetic_sm_system(8, Dims(1, 2))
    inv = matrix_inverse_fields(sys_.g_gg, 1)
    x = np.array([0.3])
    direct = np.linalg.inv(sys_.ggg(x))
    got = np.array([[inv[a][b].value(x) for b in range(2)] for a in range(2)])
    assert np.abs(got - direct).max() < 1e-13


def test_new_tau_closed_form_values(reference_params, cartpole, incline_params):
    p = reference_params
    tau = new_tau_closed_form(cartpole, 35.0)
    assert tau.value(np.array([0.0])) == pytest.approx(
        35.0 * math.sqrt(p.alpha * p.gamma - p.beta ** 2), rel=1e-12)
    assert tau.value(np.array([0.0])) == pytest.approx(1.86766, abs=2e-4)
    inc = incline_system(incline_params)
    tau_i = new_tau_closed_form(inc, 35.0)
    for x in (-0.4, 0.2, 0.9):
        assert tau_i.value(np.array([x])) == pytest.approx(
            35.0 * math.sqrt(p.alpha * p.gamma
                             - p.beta ** 2 * math.cos(x - incline_params.psi) ** 2),
            rel=1e-12)


def test_new_tau_constant_metric():
    sys_ = uncoupled_system()
    tau = new_tau_closed_form(sys_, 3.0)
    for x in (-1.0, 0.0, 1.0):
        assert tau.value(np.array([x])) == pytest.approx(3.0, rel=1e-14)
        assert tau.d1(np.array([x]))[0] == pytest.approx(0.0, abs=1e-14)


def test_new_tau_requires_two_coordinates():
    sys_, _ = synthetic_sm_system(0, Dims(1, 2))
    with pytest.raises(ValueError):
        new_tau_closed_form(sys_, 1.0)


@settings(max_examples=20, deadline=None)
@given(k=st.floats(0.1, 50.0))
def test_new_tau_linear_in_gain(k):
    from matchctl.model import CartpoleParams
    sys_ = cartpole_system(CartpoleParams())
    t1 = new_tau_closed_form(sys_, k)
    t2 = new_tau_closed_form(sys_, 2.0 * k)
    x = np.array([0.37])
    assert t2.value(x) == pytest.approx(2.0 * t1.value(x), rel=1e-14)


def test_ode_residual_closed_form(cartpole):
    tau = new_tau_closed_form(cartpole, 35.0)
    for x in default_grid():
        r = new_tau_ode_residual(cartpole, [tau], np.array([x]))
        assert np.abs(r).max() < 1e-10


def test_ode_residual_zero_tau(cartpole):
    zero = fl.constant(0.0, 1)
    for x in (-1.0, 0.3):
        assert np.abs(new_tau_ode_residual(cartpole, [zero], np.array([x]))).max() == 0.0


def test_ode_residual_linear_tau_nonzero(cartpole):
    lin = fl.coordinate(0, 1)
    r = new_tau_ode_residual(cartpole, [lin], np.array([0.5]))
    assert np.abs(r).max() > 1e-4


def test_integrate_recovers_closed_form(cartpole):
    tau = new_tau_closed_form(cartpole, 35.0)
    t0 = tau.value(np.array([-1.3]))
    samp = integrate_new_tau(cartpole, [t0], (-1.3, 1.3), step=1e-3)
    sup = max(abs(samp.value(x)[0] - tau.value(np.array([x])))
              for x in np.linspace(-1.3, 1.3, 201))
    assert sup < 1e-8
    assert samp.max_ode_residual < 1e-6


def test_sampled_tau_fields_are_the_spline(cartpole):
    tau = new_tau_closed_form(cartpole, 35.0)
    samp = integrate_new_tau(cartpole, [tau.value(np.array([-1.0]))], (-1.0, 1.0), step=1e-2)
    (field,), = samp.as_fields()
    (spline,) = samp._splines
    for x in (-0.95, -0.3, 0.0, 0.41, 0.99):
        u = np.array([x])
        assert field.value(u) == float(spline(x))
        assert field.d1(u)[0] == float(spline(x, 1))
        assert field.d2(u)[0, 0] == float(spline(x, 2))


def test_integrate_zero_initial(cartpole):
    samp = integrate_new_tau(cartpole, [0.0], (-1.0, 1.0), step=1e-2)
    assert np.abs(samp.values).max() == 0.0


def test_integrate_coupled_two_group():
    dims = Dims(1, 2)
    x = fl.coordinate(0, 1)
    g_gg = [[fl.constant(1.0, 1), fl.constant(0.0, 1)],
            [fl.constant(0.0, 1), fl.constant(1.0, 1)]]
    g_sg = [[fl.sin_of(x), fl.constant(0.0, 1)]]
    g_ss = [[fl.constant(2.0, 1)]]
    sys_ = build_mechanical_system(dims, g_ss, g_sg, g_gg, fl.constant(0.0, 3))
    samp = integrate_new_tau(sys_, [0.4, 0.3], (-1.0, 1.0), step=1e-3)
    assert samp.max_ode_residual < 1e-6


def test_slope_solve_reports_singularity():
    # with two group coordinates the solved-for matrix is a rank-one update
    # and degenerates when the scalar coefficient crosses zero
    dims = Dims(1, 2)
    g_gg = [[fl.constant(1.0, 1), fl.constant(0.0, 1)],
            [fl.constant(0.0, 1), fl.constant(1.0, 1)]]
    g_sg = [[fl.constant(0.9, 1), fl.constant(0.0, 1)]]
    g_ss = [[fl.constant(1.0, 1)]]
    sys_ = build_mechanical_system(dims, g_ss, g_sg, g_gg, fl.constant(0.0, 3))
    from matchctl.matching import _tau_slope
    # S = 2 - 1.62 - 1.8 tau^1 vanishes at tau^1 = 0.38/1.8
    with pytest.raises(TauIntegrationError):
        _tau_slope(sys_, np.array([0.0]), np.array([0.38 / 1.8, 0.3]))


@pytest.mark.parametrize("ng", [1, 2, 3])
def test_closed_form_slope_matches_dense_solve(ng):
    from matchctl.matching import _tau_slope
    sys_ = random_system(40 + ng, Dims(1, ng), const_group=False)
    rng = np.random.default_rng(ng)
    for _ in range(20):
        x = np.array([rng.uniform(-1.2, 1.2)])
        tau = rng.uniform(-0.3, 0.3, ng)
        g11, dg11 = sys_.gss(x)[0, 0], sys_.g_ss[0][0].d1(x)[0]
        g1 = sys_.gsg(x)[0]
        dg1 = np.array([f.d1(x)[0] for f in sys_.g_sg[0]])
        ginv = np.linalg.inv(sys_.ggg(x))
        S = 2.0 * g11 - 2.0 * g1 @ ginv @ g1 - 2.0 * g1 @ tau
        M = 2.0 * np.outer(tau, g1) + S * np.eye(ng)
        expect = np.linalg.solve(M, tau * (dg11 - 2.0 * g1 @ ginv @ dg1))
        got = _tau_slope(sys_, x, tau)
        assert np.abs(got - expect).max() <= 1e-13 * max(1.0, np.abs(expect).max())


def counting_system():
    """A one-group system whose g_ss counts its float and jet passes."""
    x = fl.coordinate(0, 1)
    base = 2.0 + 0.2 * fl.cos_of(x)
    passes = {"value": 0, "jet": 0}

    def g11(u):
        passes["jet" if isinstance(u[0], Jet2) else "value"] += 1
        return base.fn(u)

    sys_ = build_mechanical_system(Dims(1, 1), [[SmoothField(1, g11)]],
                                   [[0.3 * fl.sin_of(x)]], [[fl.constant(1.0, 1)]],
                                   fl.constant(0.0, 2))
    passes.update(value=0, jet=0)
    return sys_, passes


@pytest.mark.parametrize("x0, nodes", [(None, 2 * 200 + 1), (0.5, (2 * 50 + 1) + (2 * 150 + 1))])
def test_integrate_evaluates_metric_once_per_node(x0, nodes):
    # RK4 meets x_k, x_k + h/2 (twice) and x_k + h; each march evaluates
    # the metric once at each of its nodes, and the self-check reuses them
    sys_, passes = counting_system()
    samp = integrate_new_tau(sys_, [0.2], (-1.0, 1.0), step=1e-2, x0=x0)
    assert len(samp.xs) == 201
    assert passes == {"value": nodes, "jet": nodes}


@pytest.mark.parametrize("x0", [None, 0.25])
def test_batched_self_check_equals_pointwise_residual(x0):
    # the self-check evaluates all samples at once from the march's node data;
    # the pointwise residual on the sampled fields is its reference
    for sys_, tau0 in ((cartpole_system(CartpoleParams()), [0.3]),
                       (random_system(7, Dims(1, 2), const_group=False), [0.2, -0.1])):
        samp = integrate_new_tau(sys_, tau0, (-1.0, 1.0), step=1e-2, x0=x0)
        fields = [row[0] for row in samp.as_fields()]
        pointwise = max(float(np.abs(new_tau_ode_residual(sys_, fields, np.array([x]))).max())
                        for x in samp.xs)
        assert samp.max_ode_residual == pointwise
