import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matchctl.fields as fl
from conftest import random_shaping, random_system, sm_shaping
from matchctl.fields import Curve, SmoothField
from matchctl.jets import Jet2, cos, exp, log, sin, sqrt
from matchctl.lagrangian import ShapingParams, scalar_sigma_matrix
from matchctl.matching import (TauIntegrationError, default_grid,
                               generalized_matching_residuals, integrate_new_tau,
                               matching_residuals, matrix_inverse_fields,
                               new_tau_closed_form, new_tau_ode_residual,
                               simplified_matching_residuals, sm3_tau, check_on_grid,
                               _checked_slopes, _ode_pieces)
from matchctl.report import ResidualReport
from matchctl.model import (CartpoleParams, Dims, InclineParams, build_mechanical_system,
                            cartpole_system, incline_system, synthetic_sm_system)


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
    assert shp.rho == 1.0
    for x in (-0.8, 0.1, 0.9):
        rep = generalized_matching_residuals(sys_, shp, np.array([x]))
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
    shp = ShapingParams(tau=((fl.constant(0.0, 1),),), sigma=np.array([[1.0]]), rho=2.0)
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


@pytest.mark.parametrize("coords", [[0.3], [np.linspace(-1.0, 1.0, 7)]], ids=["one", "N"])
def test_inverse_reads_each_group_field_once_per_pass(coords):
    # one read_at pass over g_gg and the SM3 tau, whose inverse entries all
    # read the same 3 distinct g_gg fields: one call each
    sys_ = random_system(3, Dims(1, 2), const_group=False)
    distinct = list(dict.fromkeys(f for row in sys_.g_gg for f in row))
    assert len(distinct) == 3 and all(f.const is None for f in distinct)
    calls = []
    for i, f in enumerate(distinct):
        f.fn = (lambda i, fn: lambda u: calls.append(i) or fn(u))(i, f.fn)
    tau = sm3_tau(sys_, 0.7)
    reads = fl.read_at([sys_.g_gg, tau], coords)
    assert sorted(calls) == [0, 1, 2]
    # each entry's value is its own float pass
    for f in (tau[0][0], tau[1][0]):
        want = [f.fn([v]) for v in np.atleast_1d(coords[0]).tolist()]
        assert np.atleast_1d(reads[f][0]).tolist() == want


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
    from scipy.interpolate import CubicSpline

    tau = new_tau_closed_form(cartpole, 35.0)
    samp = integrate_new_tau(cartpole, [tau.value(np.array([-1.0]))], (-1.0, 1.0), step=1e-2)
    (field,), = samp.as_fields()
    spline = CubicSpline(samp.xs, samp.values[:, 0])
    for x in (-0.95, -0.3, 0.0, 0.41, 0.99):
        u = np.array([x])
        assert field.value(u) == float(spline(x))
        assert field.d1(u)[0] == float(spline(x, 1))
        assert field.d2(u)[0, 0] == float(spline(x, 2))
    # an array of points (a curve's integrand nodes) reads the spline's floats too
    xs = np.linspace(-0.95, 0.99, 37)
    assert field.fn([xs]).tobytes() == spline(xs).tobytes()
    assert samp.value(xs).tobytes() == spline(xs)[None].tobytes()
    assert samp.derivative(xs).tobytes() == spline(xs, 1)[None].tobytes()


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


def tau_slope(sys_, x, tau):
    """tau' at one shape point, from the march's node data and slope guard."""
    g11, dg11, g1, gig1, gidg1 = _ode_pieces(sys_, x)
    tau = np.asarray(tau, dtype=float)[None, :]
    return _checked_slopes(2.0 * g11 - 2.0 * gig1, dg11 - 2.0 * gidg1, g1, tau, x)[0]


def test_slope_solve_reports_singularity():
    # with two group coordinates the solved-for matrix is a rank-one update
    # and degenerates when the scalar coefficient crosses zero
    dims = Dims(1, 2)
    g_gg = [[fl.constant(1.0, 1), fl.constant(0.0, 1)],
            [fl.constant(0.0, 1), fl.constant(1.0, 1)]]
    g_sg = [[fl.constant(0.9, 1), fl.constant(0.0, 1)]]
    g_ss = [[fl.constant(1.0, 1)]]
    sys_ = build_mechanical_system(dims, g_ss, g_sg, g_gg, fl.constant(0.0, 3))
    # S = 2 - 1.62 - 1.8 tau^1 vanishes at tau^1 = 0.38/1.8
    with pytest.raises(TauIntegrationError):
        tau_slope(sys_, np.array([0.0]), np.array([0.38 / 1.8, 0.3]))


@pytest.mark.parametrize("ng", [1, 2, 3])
def test_closed_form_slope_matches_dense_solve(ng):
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
        got = tau_slope(sys_, x, tau)
        assert np.abs(got - expect).max() <= 1e-13 * max(1.0, np.abs(expect).max())


def counting_system():
    """A one-group system whose g11 and g_11 record their passes: the points
    of each array-jet pass, and a count of float and scalar-jet passes."""
    x = fl.coordinate(0, 1)
    passes = {"g11": [], "g1": [], "other": 0}

    def counted(name, field):
        def fn(u):
            if isinstance(u[0], Jet2) and isinstance(u[0].f, np.ndarray):
                passes[name].append(u[0].f.shape)
            else:
                passes["other"] += 1
            return field.fn(u)
        return SmoothField(1, fn)

    sys_ = build_mechanical_system(Dims(1, 1), [[counted("g11", 2.0 + 0.2 * fl.cos_of(x))]],
                                   [[counted("g1", 0.3 * fl.sin_of(x))]],
                                   [[fl.constant(1.0, 1)]], fl.constant(0.0, 2))
    passes.update(g11=[], g1=[], other=0)
    return sys_, passes


@pytest.mark.parametrize("x0, nodes", [(None, 2 * 200 + 1), (0.5, (2 * 50 + 1) + (2 * 150 + 1))])
def test_integrate_evaluates_metric_once_per_node(x0, nodes):
    # RK4 meets x_k, x_k + h/2 (twice) and x_k + h; each march evaluates each
    # metric field in one array-jet pass over its nodes, which gives values
    # and derivatives, and the self-check reuses them
    sys_, passes = counting_system()
    samp = integrate_new_tau(sys_, [0.2], (-1.0, 1.0), step=1e-2, x0=x0)
    assert len(samp.xs) == 201
    marches = [(2 * 200 + 1,)] if x0 is None else [(2 * 50 + 1,), (2 * 150 + 1,)]
    assert sum(n for (n,) in marches) == nodes
    assert passes == {"g11": marches, "g1": marches, "other": 0}


def every_function_system(ng: int):
    """A system whose metric uses every elementary function of `jets`, powers,
    both divisions, a spline `Curve` and an x-dependent group block."""
    def field(fn):
        return SmoothField(1, lambda u: fn(u[0]))

    knots = np.linspace(-1.5, 1.5, 41)
    curve = Curve(knots, np.sin(3.0 * knots))
    g11 = field(lambda v: 2.0 + 0.1 * sin(v) * cos(2.0 * v) + 0.05 * exp(0.5 * v)
                + 0.02 * log(2.0 + v) + 0.03 * sqrt(1.5 + v) + 0.01 * v ** 3
                + 0.02 * curve(v))
    g_sg = [[field(lambda v, a=a: (0.2 + 0.05 * a) * cos(v + a) / (1.7 + 0.1 * sin(v))
                   + 0.01 * (v + 2.0) ** 0.5)
             for a in range(ng)]]
    g_gg = [[field(lambda v: 1.2 + 0.1 / (2.0 + sin(v))) if a == b else fl.constant(0.1, 1)
             for b in range(ng)] for a in range(ng)]
    return build_mechanical_system(Dims(1, ng), [[g11]], g_sg, g_gg, fl.constant(0.0, ng + 1))


@pytest.mark.parametrize("ng", [1, 2])
def test_array_ode_pieces_equal_per_node_passes(ng):
    # one array-jet pass per field gives, at every node, the floats of a float
    # pass (value) and of a scalar-jet pass (derivative)
    sys_ = every_function_system(ng)
    xs = np.linspace(-1.2, 1.2, 301)
    f11, f1, fgg = sys_.g_ss[0][0], sys_.g_sg[0], sys_.g_gg
    g11 = np.array([f11.value([x]) for x in xs])
    dg11 = np.array([f11.d1([x])[0] for x in xs])
    g1 = np.array([[f.value([x]) for f in f1] for x in xs])
    dg1 = np.array([[f.d1([x])[0] for f in f1] for x in xs])
    ggg = np.array([[[f.value([x]) for f in row] for row in fgg] for x in xs])
    g1_ginv = g1[:, None, :] @ np.linalg.inv(ggg)
    expect = (g11, dg11, g1, (g1_ginv @ g1[:, :, None])[:, 0, 0],
              (g1_ginv @ dg1[:, :, None])[:, 0, 0])
    got = _ode_pieces(sys_, xs)
    for e, g in zip(expect, got):
        assert g.shape == e.shape
        assert g.tobytes() == e.tobytes()


def growth_system():
    """Two group coordinates with S0 = 2 g11 - 2 g1' g_gg^-1 g1 = 0.02 (in exact
    arithmetic) and r0 = 0.3, so tau grows like exp(15 x) and the floor of
    det M, which grows with max|M|^2, overtakes det M mid-march."""
    zero = fl.constant(0.0, 1)
    gamma = fl.constant(0.25, 1) / fl.linear([0.3], 0.99, 1)
    return build_mechanical_system(Dims(1, 2), [[fl.linear([0.3], 1.0, 1)]],
                                   [[fl.constant(0.5, 1), zero]],
                                   [[gamma, zero], [zero, gamma]], fl.constant(0.0, 3))


@pytest.mark.parametrize("tau0, step, x_fail", [
    ([1.0, 0.5], 1e-2, 0.8900000000000013),
    ([1.0, 0.5], 1e-3, 0.8885000000000015),
    # S = 0.02 - tau^1 crosses zero near x = -0.8, between stages
    ([0.001, 1.0], 1e-2, 0.430000000000001),
    ([0.001, 1.0], 1e-3, 0.4280000000000012),
])
def test_march_guard_fails_at_the_recorded_stage(tau0, step, x_fail):
    # x_fail is where the per-stage guard of the previous release raised
    with pytest.raises(TauIntegrationError) as err:
        integrate_new_tau(growth_system(), tau0, (-1.0, 1.0), step=step)
    assert err.value.x == x_fail


@pytest.mark.parametrize("ng", [1, 2])
@pytest.mark.parametrize("x0", [0.0, None, 1.0])
@pytest.mark.parametrize("c", [0.5, 0.625])
def test_zero_S0_node_is_a_guard_failure(ng, x0, c):
    # g11 = x - c and g_11 = 0: S0 vanishes at the node x = c, a step's end
    # (0.5) or its midpoint (0.625); the march raises there, as the per-stage
    # guard of the previous release did, and never divides by zero
    x = fl.coordinate(0, 1)
    g_sg = [[fl.constant(0.0, 1)] + [0.1 * fl.sin_of(x)] * (ng - 1)]
    g11 = fl.linear([1.0], -c, 1) + (0.01 * fl.sin_of(x) * fl.sin_of(x) if ng > 1 else 0.0)
    g_gg = [[fl.constant(float(a == b), 1) for b in range(ng)] for a in range(ng)]
    sys_ = build_mechanical_system(Dims(1, ng), [[g11]], g_sg, g_gg, fl.constant(0.0, ng + 1))
    with pytest.raises(TauIntegrationError) as err:
        integrate_new_tau(sys_, [0.3, 0.2][:ng], (0.0, 1.0), step=0.25, x0=x0)
    assert err.value.x == c


def _samples_digest(samp) -> str:
    h = hashlib.sha256()
    for a in (samp.xs, samp.values, np.array([samp.max_ode_residual])):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# sha256 of xs, values and max_ode_residual, recorded with the per-stage march
# of the previous release (tau0 from the closed form at k = 35 for the worked
# systems, linspace(0.2, -0.1, ng) for the random ones; range (-1.3, 1.3))
SAMPLE_DIGESTS = {
    ("cartpole", None): "50e5e4808f45bc275c025a753069650ba9387b6e105ae6e12c2cdf1c77c21671",
    ("cartpole", 0.25): "08680a05d3120669bb1229ffb2f742a5ad7fcd31e35b7c6a54ff0902fcb4fadf",
    ("incline", None): "a6642bb119b8827da19d1960984711e730fb1f79d50111cfe1474ca68e7c1b53",
    ("incline", 0.25): "abf406d4229bebdfd1f2276ce6503a4274adce0c2e19da2d7285c75c9ecce6f2",
    ("random1", None): "5ee8d9e3c9dacb9a51dab329907c35946c3abfc32875d118075b91c91c2490a9",
    ("random1", 0.25): "e1d33278c3a04d2a3984d016c6c2f8c240ad60ec5e89fff9f3493ab3edd42264",
    ("random2", None): "ed689e5e401688c35a366853cda324977ae65aa9765f4a8f1bc09ec5f4a2a90c",
    ("random2", 0.25): "c83fd195b88c20acc0f64314d7e533c8bef212f90dc7a5eefffa3cef7ce1e83b",
    ("random3", None): "2cc7c46adc00ea7f2f2adae9732ced8237f34bd41bc23c622f0e55e64d6dc53d",
    ("random3", 0.25): "e04f592e49a4693dac38db30b1d644e937f1e902508a56a8ca110663665915fd",
}


@pytest.mark.parametrize("name, x0", list(SAMPLE_DIGESTS))
def test_integrated_samples_match_recorded_digests(name, x0):
    if name == "cartpole":
        sys_ = cartpole_system(CartpoleParams())
    elif name == "incline":
        sys_ = incline_system(InclineParams(psi=0.3))
    else:
        ng = int(name[-1])
        sys_ = random_system(40 + ng, Dims(1, ng), const_group=False)
    if name in ("cartpole", "incline"):
        tau0 = [new_tau_closed_form(sys_, 35.0).value(np.array([-1.3]))]
    else:
        tau0 = list(np.linspace(0.2, -0.1, sys_.dims.n_group))
    samp = integrate_new_tau(sys_, tau0, (-1.3, 1.3), step=3e-3, x0=x0)
    assert _samples_digest(samp) == SAMPLE_DIGESTS[name, x0]


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


# ---------------------------------------------------------------------------
# grid engines
# ---------------------------------------------------------------------------

ENGINES = [matching_residuals, simplified_matching_residuals, generalized_matching_residuals]


def partly_scalar_group_system():
    """g_gg = diag(1 + x^2/2, 1): sigma = I is a scalar multiple of it only at
    x = 0, so SM1 passes and SM3 is live there alone."""
    x = fl.coordinate(0, 1)
    zero = fl.constant(0.0, 1)
    g_gg = [[1.0 + 0.5 * x * x, zero], [zero, fl.constant(1.0, 1)]]
    g_sg = [[0.2 * fl.cos_of(x), 0.1 * fl.sin_of(x)]]
    return build_mechanical_system(Dims(1, 2), [[fl.constant(2.0, 1)]], g_sg, g_gg,
                                   fl.constant(0.0, 3))


def grid_cases():
    cart = cartpole_system(CartpoleParams())
    incl = incline_system(InclineParams(psi=0.3))
    tau_c = ((new_tau_closed_form(cart, 35.0),),)
    grid = default_grid(-1.0, 1.0, 9)[:, None]
    partly = partly_scalar_group_system()
    partly_shp = ShapingParams(tau=((0.3 * fl.sin_of(fl.coordinate(0, 1)),),
                                    (fl.constant(0.1, 1),)), sigma=np.eye(2))
    cases = {
        "cartpole": (cart, ShapingParams(tau=tau_c, sigma=scalar_sigma_matrix(cart, 1.0)), grid),
        "incline": (incl, ShapingParams(tau=sm3_tau(incl, 1.0),
                                        sigma=scalar_sigma_matrix(incl, 1.0), rho=2.0), grid),
        "builtin": (*sm_shaping(1, Dims(1, 2)), grid),
        # SM3 live at the middle point only, then at the first point only
        "sm3-middle": (partly, partly_shp, grid),
        "sm3-first": (partly, partly_shp, default_grid(0.0, 1.0, 5)[:, None]),
        # a NaN shape coordinate makes every residual NaN at that point
        "nan-first": (cart, ShapingParams(tau=tau_c, sigma=2.0 * np.eye(1)),
                      np.array([[np.nan], [-0.5], [0.2], [0.7]])),
        "nan-later": (cart, ShapingParams(tau=tau_c, sigma=2.0 * np.eye(1)),
                      np.array([[-0.5], [np.nan], [0.2], [0.7]])),
    }
    for dims in (Dims(2, 2), Dims(1, 3)):
        sys_ = random_system(11, dims, const_group=False)
        shp = random_shaping(12, sys_)
        rng = np.random.default_rng(13)
        cases[f"random{dims.n_shape}{dims.n_group}"] = (
            sys_, shp, rng.uniform(-1.0, 1.0, size=(9, dims.n_shape)))
        cases[f"random{dims.n_shape}{dims.n_group}-rho"] = (
            sys_, ShapingParams(tau=shp.tau, sigma=shp.sigma, rho=1.7),
            grid.repeat(dims.n_shape, 1))
    return cases


GRID_CASES = grid_cases()


def entry_key(e):
    # repr keeps NaN equal to NaN and tells a numpy float from a Python one
    return repr(dataclasses.astuple(e))


@pytest.mark.parametrize("engine", ENGINES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("case", list(GRID_CASES))
def test_grid_report_equals_merge_of_point_reports(case, engine):
    sys_, shp, grid = GRID_CASES[case]
    got = check_on_grid(engine, sys_, shp, grid)
    points = [engine(sys_, shp, x) for x in grid]
    expect = ResidualReport.merge_max(points[0].title + " (grid max)", points)
    assert got.title == expect.title
    assert [entry_key(e) for e in got.entries] == [entry_key(e) for e in expect.entries]


# sha256 of the one-point reports of the three engines at every point of each
# case, recorded with the per-point engines of the previous release
POINT_REPORT_DIGESTS = {
    "cartpole": "291bfbb8a9ab49d09498b67b8c18d01e79be3ae75a71bfcfbb3a5e296c83d9dc",
    "incline": "491835da03acf71a2f7bec4364ff5439e204944d7eb77ced43f2e6ce91154ca1",
    "builtin": "8e654a00476f4644feec65b33977cd5b0f7db74792d34e7b9b588ddf6b0ddc79",
    "sm3-middle": "1b24303b8f208c3e9516299054e6fa02d89845f8f9e27964ec35af87e9daa1cd",
    "sm3-first": "9777a6760a05703dc7212f4ec2a2e7f4104d79e2b5639c1ab9a4f86bb8bb7c0b",
    "nan-first": "a01b663dd141af1b6cc78a32cec432201d78fc872cc6783e037cff807041a8eb",
    "nan-later": "9ff1e00d7f38ebbd5f6d88d7e31072abed3eb4a90e986f98d581dd5ef534a7ed",
    "random22": "fc6b1114c6144396a7fc7c9509d139e12f41051935e6f0084b659a436069339a",
    "random22-rho": "2874a1cf8b3ca83f354e23b7f611d68b92649a607ec4487b8637cd433ba79d94",
    "random13": "79dd6a15de3700b18e2da4d21a26a646a0a8778b47b9636ee89b2ab26df3d515",
    "random13-rho": "eed9178a90d63cafaee9c454d1496bec9a8283d610f44b9be49d0961afb0c11b",
}


@pytest.mark.parametrize("case", list(GRID_CASES))
def test_point_reports_match_recorded_digests(case):
    sys_, shp, grid = GRID_CASES[case]
    h = hashlib.sha256()
    for engine in ENGINES:
        for x in grid:
            rep = engine(sys_, shp, x)
            h.update(rep.title.encode())
            for e in rep.entries:
                h.update(entry_key(e).encode())
    assert h.hexdigest() == POINT_REPORT_DIGESTS[case]


def test_grid_cases_reach_the_merge_rules():
    # the cases above exercise a per-point SM3 skip and a NaN at the first
    # and at a later point
    def simp(case):
        sys_, shp, grid = GRID_CASES[case]
        return check_on_grid(simplified_matching_residuals, sys_, shp, grid)

    for case, note in (("sm3-middle", "sigma not a scalar multiple of g_gg"), ("sm3-first", "")):
        sm3 = simp(case).entry("SM3")
        assert not sm3.skipped and sm3.note == note
    # SM4 reads 0 at every finite point of the cart-pole
    assert math.isnan(simp("nan-first").entry("SM4").value)
    later = simp("nan-later").entry("SM4")
    assert later.value == 0.0 and not later.passed
    assert not simp("incline").entry("SM5").skipped


@pytest.mark.parametrize("case", ["cartpole", "nan-later"])
def test_grid_tau_ode_residual_equals_point_residuals(case):
    sys_, shp, grid = GRID_CASES[case]
    fields = [row[0] for row in shp.tau]
    got = new_tau_ode_residual(sys_, fields, grid)
    expect = np.array([new_tau_ode_residual(sys_, fields, x) for x in grid])
    assert got.shape == (len(grid), 1)
    assert got.tobytes() == expect.tobytes()


def counted_fields(sys_):
    """Wrap every distinct non-constant metric field of sys_ so that its
    passes are counted, by field object."""
    calls = {}
    for block in (sys_.g_ss, sys_.g_sg, sys_.g_gg):
        for f in (f for row in block for f in row):
            if f.const is None and f not in calls:
                calls[f] = 0

                def fn(u, f=f, inner=f.fn):
                    calls[f] += 1
                    return inner(u)
                f.fn = fn
    return calls


def test_each_metric_field_is_evaluated_once():
    # the symmetric group block holds one field object in both off-diagonal slots
    sys_ = random_system(5, Dims(1, 2), const_group=False)
    assert sys_.g_gg[0][1] is sys_.g_gg[1][0]
    calls = counted_fields(sys_)
    _ode_pieces(sys_, np.linspace(-1.0, 1.0, 7))
    assert list(calls.values()) == [1] * 6
    calls.update(dict.fromkeys(calls, 0))
    shp = random_shaping(6, sys_)
    matching_residuals(sys_, shp, default_grid(-1.0, 1.0, 7)[:, None])
    assert list(calls.values()) == [0] + [1] * 5      # g_ss is not read


def test_generalized_engine_reads_its_point_data_once(monkeypatch):
    import matchctl.matching as mt
    calls = []
    real = mt._point_data

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mt, "_point_data", counted)
    sys_, shp, grid = GRID_CASES["random22-rho"]
    check_on_grid(generalized_matching_residuals, sys_, shp, grid)
    assert len(calls) == 1


def singular_group_system():
    """g_gg = diag(1, x), singular at x = 0 only; with sigma = I, SM1 fails
    there (so SM3 is skipped) and passes at x = 1."""
    zero = fl.constant(0.0, 1)
    g_gg = [[fl.constant(1.0, 1), zero], [zero, fl.coordinate(0, 1)]]
    return build_mechanical_system(Dims(1, 2), [[fl.constant(1.0, 1)]],
                                   [[0.2 * fl.cos_of(fl.coordinate(0, 1)), zero]], g_gg,
                                   fl.constant(0.0, 3))


def test_singular_block_names_block_and_first_point():
    sys_ = singular_group_system()
    zero = fl.constant(0.0, 1)
    shp = ShapingParams(tau=((zero,), (zero,)), sigma=np.eye(2))
    grid = default_grid(-1.0, 1.0, 9)[:, None]
    for engine in (matching_residuals, generalized_matching_residuals):
        with pytest.raises(ValueError, match=r"^g_gg is singular at x = 0$"):
            check_on_grid(engine, sys_, shp, grid)
    with pytest.raises(ValueError, match=r"^g_gg is singular at x = 0$"):
        new_tau_ode_residual(sys_, [zero, zero], grid)
    # SM3, the only reader of g_gg^-1 here, is skipped at x = 0
    rep = check_on_grid(simplified_matching_residuals, sys_, shp, grid)
    assert not rep.entry("SM3").skipped
