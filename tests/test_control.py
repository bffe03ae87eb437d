import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

import matchctl.control as ctl
import matchctl.fields as fl
from matchctl.control import (INCLINE_LOOP_SPAN, GainSelection, MatchingFailure,
                              _cell_integrals, _cumulative_integral, _gauss, _HCurve,
                              _incline_slope, cartpole_closed_loop,
                              cartpole_control, cartpole_shaped_potential,
                              cartpole_shaped_potential_gradient, cartpole_shaping,
                              gain_bound, gain_bound_crossing, incline_A_coefficient,
                              incline_A_field, incline_Veps, incline_base_shaping,
                              incline_closed_loop, incline_h, incline_h_curve,
                              incline_hessian_check, incline_safe_span,
                              incline_shaped_potential, incline_shaping,
                              incline_veps_field, position_feedback_control,
                              reconstruct_shaped_potential_gradient, shaped_energy,
                              shaped_multipliers)
from matchctl.lagrangian import (ShapingParams, controlled_implicit_sode,
                                 scalar_sigma_matrix)
from matchctl.matching import new_tau_closed_form, sm3_tau
from matchctl.model import CartpoleParams, InclineParams, State, cartpole_system, incline_system
from matchctl.sim import OBSERVE_BLOCK, Trajectory, integrate, observe


@pytest.fixture(scope="module")
def gains():
    return GainSelection(k=35.0, sigma=1.0)


@pytest.fixture(scope="module")
def incline_gains(incline_params):
    sys_ = incline_system(incline_params)
    shp = ShapingParams(tau=((new_tau_closed_form(sys_, 35.0),),),
                        sigma=scalar_sigma_matrix(sys_, 1.0), rho=2.0)
    _, _, c_min = incline_hessian_check(incline_params, shp,
                                        GainSelection(k=35.0, sigma=1.0, rho=2.0))
    return GainSelection(k=35.0, sigma=1.0, rho=2.0, c=c_min + 1.0, s0=0.0)


# ---------------------------------------------------------------------------
# position feedback and gain bound
# ---------------------------------------------------------------------------

def test_feedback_zero_at_equilibrium(cartpole):
    tau = [new_tau_closed_form(cartpole, 35.0)]
    u = position_feedback_control(cartpole, tau, np.array([0.0, 0.7]))
    assert np.abs(u).max() == 0.0


def test_feedback_matches_displayed_control(reference_params, cartpole):
    tau = [new_tau_closed_form(cartpole, 35.0)]
    for x in (0.1, -0.4, 0.9):
        u = position_feedback_control(cartpole, tau, np.array([x, 0.3]))
        assert u[0] == pytest.approx(float(cartpole_control(reference_params, 35.0, x)),
                                     rel=1e-12)


def test_feedback_takes_no_velocities(cartpole):
    # the signature carries no velocity argument; same q gives the same u
    tau = [new_tau_closed_form(cartpole, 35.0)]
    q = np.array([0.5, -2.0])
    us = {position_feedback_control(cartpole, tau, q)[0] for _ in range(10)}
    assert len(us) == 1


def test_gain_bound_paper_value(reference_params):
    assert gain_bound(reference_params, 0.0) == pytest.approx(3.0566, abs=1e-3)
    assert 35.0 > gain_bound(reference_params, 0.0)


def test_gain_bound_blows_up_without_coupling():
    weak = CartpoleParams(m=1e-6, M=1.0, l=1.0)
    assert gain_bound(weak, 0.0) > 1e2
    with pytest.raises(ValueError):
        gain_bound(CartpoleParams(), 1.6)


def test_gain_bound_crossing(reference_params):
    xc = gain_bound_crossing(reference_params, 35.0)
    assert gain_bound(reference_params, xc - 1e-4) < 35.0 < gain_bound(reference_params, xc + 1e-4)


def _crossing_in_200_steps(p, k):
    """The reference bisection: 200 steps whatever the bracket."""
    lo, hi = 0.0, math.pi / 2 - 1e-9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gain_bound(p, mid) < k:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("p", [CartpoleParams(), InclineParams(psi=0.3)],
                         ids=["cartpole", "incline"])
def test_gain_bound_crossing_stops_at_the_200_step_float(p, monkeypatch):
    hi0 = math.pi / 2 - 1e-9
    k_end = gain_bound(p, hi0)      # above it, lo climbs all the way to hi0
    ks = np.geomspace(gain_bound(p, 0.0) * (1 + 1e-15), 1e12, 40).tolist() \
        + [math.nextafter(k_end, 0.0), k_end, math.nextafter(k_end, math.inf)]
    calls = []
    monkeypatch.setattr(ctl, "gain_bound", lambda *a: calls.append(a) or gain_bound(*a))
    for k in ks:
        calls.clear()
        x = gain_bound_crossing(p, k)
        assert x == _crossing_in_200_steps(p, k)
        # the bracket halves until it is one ulp of the crossing wide; add the
        # check at 0, the step that meets the fixed point and one that moves lo
        # onto the bracket end
        assert len(calls) <= math.ceil(math.log2(hi0 / math.ulp(x))) + 3
        if x >= 2.0 ** -9:
            assert len(calls) <= 64


# ---------------------------------------------------------------------------
# shaped multipliers
# ---------------------------------------------------------------------------

def test_multipliers_unshaped(cartpole):
    shp = ShapingParams.zero(cartpole.dims)
    sm = shaped_multipliers(cartpole, shp, np.array([0.4, 0.0]))
    assert np.allclose(sm.gtilde, cartpole.metric(np.array([0.4])))
    assert sm.Dtilde == pytest.approx(sm.D, rel=1e-12)


def test_multipliers_match_displays(reference_params, cartpole, gains):
    p = reference_params
    shp = cartpole_shaping(p, gains)
    for x in (-0.7, 0.0, 0.5):
        sm = shaped_multipliers(cartpole, shp, np.array([x, 0.0]))
        D = p.alpha * p.gamma - p.beta ** 2 * math.cos(x) ** 2
        g11 = p.gamma * gains.k ** 2 * (gains.sigma + 1) * D \
            + 2 * p.beta * gains.k * math.cos(x) * math.sqrt(D) + p.alpha
        g12 = p.gamma * gains.k * math.sqrt(D) + p.beta * math.cos(x)
        assert sm.gtilde[0, 0] == pytest.approx(g11, rel=1e-12)
        assert sm.gtilde[0, 1] == pytest.approx(g12, rel=1e-12)
        assert sm.gtilde[1, 1] == pytest.approx(p.gamma, rel=1e-12)
        tau = gains.k * math.sqrt(D)
        assert abs(sm.Dtilde - (sm.D + gains.sigma * (p.gamma * tau) ** 2)) < 1e-12
        assert sm.positive_definite


def test_multipliers_positive_definite_chain(reference_params, cartpole):
    # positive gain and sigma keep the shaped kinetic form positive definite
    for k, sigma in ((5.0, 0.5), (35.0, 1.0), (80.0, 2.0)):
        shp = cartpole_shaping(reference_params, GainSelection(k=k, sigma=sigma))
        for x in np.linspace(-1.55, 1.55, 21):
            sm = shaped_multipliers(cartpole, shp, np.array([x, 0.0]))
            assert sm.Dtilde > 0
            assert sm.gtilde[0, 0] > 0
            assert sm.positive_definite


def test_multipliers_incline_determinant_relation(incline_params, incline_gains):
    p = incline_params
    sys_ = incline_system(p)
    g = incline_gains
    tau_f = new_tau_closed_form(sys_, g.k)
    shp = ShapingParams(tau=((tau_f,),), sigma=scalar_sigma_matrix(sys_, g.sigma),
                        rho=g.rho)
    for x in (-0.5, 0.0, 0.6):
        sm = shaped_multipliers(sys_, shp, np.array([x, 0.0]))
        tau = tau_f.value(np.array([x]))
        expect = g.rho * (sm.D + g.sigma * (p.gamma * tau) ** 2)
        assert abs(sm.Dtilde - expect) < 1e-12


# ---------------------------------------------------------------------------
# potential reconstruction
# ---------------------------------------------------------------------------

def test_reconstruction_equilibrium(reference_params, cartpole, gains):
    shp = cartpole_shaping(reference_params, gains)
    loop = cartpole_closed_loop(reference_params, gains)
    grad = reconstruct_shaped_potential_gradient(cartpole, shp, loop,
                                                 np.array([0.0, 0.2]))
    assert np.abs(grad).max() < 1e-12


def test_reconstruction_matches_display(reference_params, cartpole, gains):
    shp = cartpole_shaping(reference_params, gains)
    loop = cartpole_closed_loop(reference_params, gains)
    for x in (0.3, -0.8, 1.1):
        grad = reconstruct_shaped_potential_gradient(cartpole, shp, loop,
                                                     np.array([x, 0.0]))
        assert grad[0] == pytest.approx(
            float(cartpole_shaped_potential_gradient(reference_params, gains, x)), rel=1e-10)
        assert abs(grad[1]) < 1e-12


def test_reconstruction_restoring_sign(reference_params, cartpole, gains):
    xc = gain_bound_crossing(reference_params, gains.k)
    for x in np.linspace(1e-3, xc - 1e-3, 25):
        slope = float(cartpole_shaped_potential_gradient(reference_params, gains, x))
        assert slope > 0.0


def test_reconstruction_flags_mismatch(cartpole):
    # tau that does not solve the shaping ODE leaves velocity terms behind
    bad = ShapingParams(tau=((0.5 * fl.coordinate(0, 1),),),
                        sigma=scalar_sigma_matrix(cartpole, 1.0))
    field = controlled_implicit_sode(cartpole, bad).to_explicit()
    with pytest.raises(MatchingFailure):
        reconstruct_shaped_potential_gradient(cartpole, bad, field, np.array([0.4, 0.0]))


def test_shaped_potential_curve(reference_params, gains):
    pot = cartpole_shaped_potential(reference_params, gains, (-1.2, 1.2))
    assert pot.value(np.array([0.0])) == pytest.approx(0.0, abs=1e-12)
    # derivative of the cached curve equals the exact slope
    h = 1e-5
    for x in (-0.9, 0.25, 0.8):
        num = (pot.value(np.array([x + h])) - pot.value(np.array([x - h]))) / (2 * h)
        assert num == pytest.approx(pot.slope(x), rel=1e-7)


@pytest.mark.parametrize("k, sigma", [(35.0, 1.0), (5.0, 0.5), (150.0, 2.3)])
def test_shaped_potential_slope_is_the_gradient_bit_for_bit(reference_params, k, sigma):
    # the curve integrates a math slope; it must be the vectorized gradient's floats
    gains = GainSelection(k=k, sigma=sigma)
    span = gain_bound_crossing(reference_params, k) - 1e-6
    slope = cartpole_shaped_potential(reference_params, gains, (-span, span)).slope
    xs = np.random.default_rng(17).uniform(-span, span, 2000).tolist() + [0.0, span]
    ours = np.array([slope(x) for x in xs])
    ref = np.array([float(cartpole_shaped_potential_gradient(reference_params, gains, x))
                    for x in xs])
    assert ours.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# incline pieces
# ---------------------------------------------------------------------------

def test_incline_A_reductions(incline_params):
    p = incline_params
    sys_ = incline_system(p)
    # classical tau with rho = 1, sigma = 1 collapses the slope coefficient
    shp1 = ShapingParams(tau=sm3_tau(sys_, 1.0), sigma=scalar_sigma_matrix(sys_, 1.0),
                         rho=1.0)
    for x in (-0.6, 0.0, 0.8):
        assert incline_A_coefficient(p, shp1, x) == pytest.approx(
            p.beta * math.cos(p.psi - x) / p.gamma, rel=1e-12)
    # general SM3 display
    sigma, rho = 1.4, 2.5
    shp2 = ShapingParams(tau=sm3_tau(sys_, sigma),
                         sigma=scalar_sigma_matrix(sys_, sigma), rho=rho)
    for x in (-0.6, 0.3):
        expect = -p.beta * math.cos(p.psi - x) * (rho * (sigma - 1.0) - sigma) \
            / (p.gamma * rho * sigma)
        assert incline_A_coefficient(p, shp2, x) == pytest.approx(expect, rel=1e-12)


def test_incline_A_first_summand_vanishes(incline_params):
    # gains tuned so the multiplier-difference summand drops out
    p = incline_params
    sys_ = incline_system(p)
    rho, sigma = 2.0, 1.0
    k = math.sqrt((rho - 1.0) / (p.gamma ** 2 * (rho + sigma)))
    tau_f = new_tau_closed_form(sys_, k)
    shp = ShapingParams(tau=((tau_f,),), sigma=scalar_sigma_matrix(sys_, sigma), rho=rho)
    for x in (-0.5, 0.4):
        cpx = math.cos(p.psi - x)
        D = p.alpha * p.gamma - p.beta ** 2 * cpx ** 2
        t = k * math.sqrt(D)
        second_only = p.gamma * k * rho * math.sqrt(D) * (2 * p.beta ** 2 * cpx ** 2
                                                          - p.alpha * p.gamma) \
            / (p.gamma * rho * (-p.beta * p.gamma * k * cpx * math.sqrt(D) + D))
        assert incline_A_coefficient(p, shp, x) == pytest.approx(second_only, rel=1e-12)


def test_incline_h_and_critical_point(incline_params, incline_gains):
    p = incline_params
    sys_ = incline_system(p)
    shp = incline_shaping(p, incline_gains)
    assert incline_h(p, shp, 0.0) == 0.0
    val, grad, hx = incline_Veps(p, shp, incline_gains, (0.0, incline_gains.s0))
    assert hx == 0.0
    # total-potential gradient vanishes at the target point
    dV = sys_.V_d1(np.array([0.0, incline_gains.s0]))
    assert abs(dV[0] + grad[0]) < 1e-10
    assert abs(dV[1] + grad[1]) < 1e-10


def test_incline_veps_field_derivatives_match_closed_forms(incline_params):
    # d/dx = (s0 - s) A + 2 c x, d/ds = slope + s - h - s0, with A' from A's jet
    p = incline_params
    gains = GainSelection(k=35.0, sigma=1.0, rho=2.0, c=6.0, s0=0.3)
    base = incline_base_shaping(p, gains)
    veps = incline_veps_field(p, base, gains)
    h = incline_h_curve(p, base, gains.k, (-1.5, 1.5))
    slope = p.gamma * p.grav * math.sin(p.psi)
    for x, s in ((-0.7, 0.4), (0.0, -1.2), (0.5, 0.3), (0.9, 2.0)):
        A = h.A.value(np.array([x]))
        dA = h.A.d1(np.array([x]))[0]
        d1 = [(gains.s0 - s) * A + 2.0 * gains.c * x, slope + s - h(x) - gains.s0]
        d2 = [[(gains.s0 - s) * dA + 2.0 * gains.c, -A], [-A, 1.0]]
        u = np.array([x, s])
        assert np.abs(veps.d1(u) - d1).max() <= 1e-13 * np.abs(d1).max()
        assert np.abs(veps.d2(u) - d2).max() <= 1e-13 * np.abs(d2).max()


def test_incline_pde_residual(incline_params, incline_gains):
    # difference oracle on the extra potential, Richardson-refined in x
    p = incline_params
    shp = incline_shaping(p, incline_gains)
    veps = incline_veps_field(p, shp, incline_gains)
    A = incline_A_field(p, shp)
    h = 3e-3
    for x in np.linspace(-0.9, 0.9, 7):
        for s in (-0.8, 0.1, 0.9):
            def V(xx, ss):
                return veps.value(np.array([xx, ss]))

            def cross(hh):
                return (V(x + hh, s + hh) - V(x + hh, s - hh)
                        - V(x - hh, s + hh) + V(x - hh, s - hh)) / (4 * hh * hh)

            vsx = (4.0 * cross(h / 2) - cross(h)) / 3.0
            vss = (V(x, s + h) - 2 * V(x, s) + V(x, s - h)) / h ** 2
            res = A.value(np.array([x])) * vss + vsx
            assert abs(res) < 1e-8


def test_incline_quadratic_branch_solves_pde(incline_params):
    # the classical-tau branch admits a quadratic extra potential
    p = incline_params
    sys_ = incline_system(p)
    sigma, rho, eps = 1.4, 2.5, 0.7
    shp = ShapingParams(tau=sm3_tau(sys_, sigma),
                        sigma=scalar_sigma_matrix(sys_, sigma), rho=rho)
    A = incline_A_field(p, shp)
    coef = eps * p.d * p.gamma ** 2 / (2.0 * p.beta ** 2)
    shift = (-1.0 / sigma + (rho - 1.0) / rho) * (p.beta / p.gamma)

    def veps(x, s):
        y = s + shift * (math.sin(x - p.psi) + math.sin(p.psi))
        return coef * y ** 2

    h = 3e-3
    for x in (-0.7, 0.2, 0.9):
        s = 0.4

        def cross(hh):
            return (veps(x + hh, s + hh) - veps(x + hh, s - hh)
                    - veps(x - hh, s + hh) + veps(x - hh, s - hh)) / (4 * hh * hh)

        vsx = (4.0 * cross(h / 2) - cross(h)) / 3.0
        vss = (veps(x, s + h) - 2 * veps(x, s) + veps(x, s - h)) / h ** 2
        assert abs(A.value(np.array([x])) * vss + vsx) < 1e-8


def test_incline_hessian_boundary(incline_params):
    p = incline_params
    sys_ = incline_system(p)
    shp = ShapingParams(tau=((new_tau_closed_form(sys_, 35.0),),),
                        sigma=scalar_sigma_matrix(sys_, 1.0), rho=2.0)
    base = GainSelection(k=35.0, sigma=1.0, rho=2.0)
    _, _, c_min = incline_hessian_check(p, shp, base)
    H1, pd1, _ = incline_hessian_check(p, shp, GainSelection(k=35.0, sigma=1.0,
                                                             rho=2.0, c=c_min + 1.0))
    assert pd1 and np.linalg.eigvalsh(H1).min() > 0
    _, pd2, _ = incline_hessian_check(p, shp, GainSelection(k=35.0, sigma=1.0,
                                                            rho=2.0, c=c_min))
    assert not pd2
    _, pd3, _ = incline_hessian_check(p, shp, GainSelection(k=35.0, sigma=1.0,
                                                            rho=2.0, c=c_min - 1.0))
    assert not pd3


def test_incline_hessian_diagonal_case(incline_params):
    # sigma = rho/(rho-1) zeroes the mixed entry; then any c > -d/2 works
    p = incline_params
    sys_ = incline_system(p)
    rho = 2.0
    sigma = rho / (rho - 1.0)
    shp = ShapingParams(tau=sm3_tau(sys_, sigma),
                        sigma=scalar_sigma_matrix(sys_, sigma), rho=rho)
    assert incline_A_coefficient(p, shp, 0.0) == pytest.approx(0.0, abs=1e-14)
    c = -p.d / 2.0 + 0.1
    H, pd, c_min = incline_hessian_check(p, shp, GainSelection(k=1.0, sigma=sigma,
                                                               rho=rho, c=c))
    assert pd and abs(H[0, 1]) < 1e-14
    assert c_min == pytest.approx(-p.d / 2.0)


def test_incline_safe_span(incline_params):
    lo, hi = incline_safe_span(incline_params, 35.0, (-1.5, 1.5))
    assert lo > -1.5 and hi == 1.5
    with pytest.raises(ValueError):
        incline_safe_span(incline_params, 35.0, (-3.0, -2.9))
    # the window at k = 3.2 lies right of the anchor x = 0
    with pytest.raises(ValueError, match="does not hold the anchor x = 0"):
        incline_safe_span(incline_params, 3.2, (-1.5, 1.5))
    # psi < 0 mirrors the window: at k = 35 it clips the upper end and holds
    # x = 0, and at k = 3.2 it lies left of x = 0
    left = InclineParams(psi=-0.3)
    lo, hi = incline_safe_span(left, 35.0, (-1.5, 1.5))
    assert lo == -1.5 and 0.0 < hi < 1.5
    assert hi == pytest.approx(-incline_safe_span(incline_params, 35.0, (-1.5, 1.5))[0])
    with pytest.raises(ValueError, match="does not hold the anchor x = 0"):
        incline_safe_span(left, 3.2, (-1.5, 1.5))
    # a window that reaches past x = 0 by less than its margin, at either end
    for p in (incline_params, left):
        with pytest.raises(ValueError, match="does not hold the anchor x = 0"):
            incline_safe_span(p, gain_bound(p, 0.3 + 2.5e-3), (-1.5, 1.5))


# ---------------------------------------------------------------------------
# cumulative integral of the potential and h curves
# ---------------------------------------------------------------------------

def _quad_cells(f, xs, **kw):
    kw = kw or {"epsabs": 1e-12, "epsrel": 1e-8}
    return np.array([quad(f, a, b, **kw)[0] for a, b in zip(xs[:-1], xs[1:])])


def _curve_integrands(reference_params, incline_params, k):
    """(array integrand, float integrand, grid) of the cart-pole potential, the
    incline h-curve and the incline potential at gain k."""
    gains = GainSelection(k=k, sigma=1.0, rho=2.0, c=6.0)
    span = gain_bound_crossing(reference_params, k) - 1e-6
    cp = lambda x: cartpole_shaped_potential_gradient(reference_params, gains, x)  # noqa: E731
    base = incline_base_shaping(incline_params, gains)
    h = incline_h_curve(incline_params, base, k, INCLINE_LOOP_SPAN)
    lo, hi = incline_safe_span(incline_params, k, (-1.2, 1.2))
    h_fn = lambda x: h.A.fn([x])  # noqa: E731
    slope = _incline_slope(incline_params, gains, h, incline_system(incline_params), base)
    return [(cp, lambda x: float(cp(x)), np.linspace(-span, span, 801)),
            (h_fn, h_fn, h.x),
            (slope, slope, np.linspace(lo, hi, 801))]


@pytest.mark.parametrize("k", [4.0, 20.0, 35.0, 150.0])
def test_cell_integrals_match_quad(reference_params, incline_params, k):
    # Interior cells agree with one adaptive quad each to 1e-13.  The ten
    # cells at each end are left out: there the curves come within a few
    # cells of a pole (of the cart-pole slope, or of A, where the spline of h
    # has its largest third-derivative jumps), and both rules differ from the
    # exact cell integral by more than 1e-13, inside their 1e-8 tolerance.
    for f_arr, f_float, xs in _curve_integrands(reference_params, incline_params, k):
        ours = _cell_integrals(f_arr, xs[:-1], xs[1:])
        ref = _quad_cells(f_float, xs)
        assert np.abs(ours - ref)[10:-10].max() <= 1e-13


@pytest.mark.parametrize("k", [4.0, 20.0, 35.0, 150.0])
def test_cartpole_end_cells_are_refined(reference_params, k):
    # the span ends 1e-6 from the pole of the slope: one 8-point rule per end
    # cell is far off, the refined cells are within the 1e-8 tolerance
    f_arr, f_float, xs = _curve_integrands(reference_params, InclineParams(psi=0.3), k)[0]
    ends = xs[[0, -2]], xs[[1, -1]]
    ours = _cell_integrals(f_arr, *ends)
    ref = np.array([quad(f_float, a, b, epsabs=0, epsrel=1e-13, limit=1000)[0]
                    for a, b in zip(*ends)])
    assert np.all(np.abs(ours - ref) <= 1e-8 * np.abs(ref))
    assert np.all(np.abs(_gauss(f_arr, *ends, str) - ref) > 1.0)


def test_incline_h_curve_is_accepted_at_the_first_level(incline_params):
    # the anchor cell [0, x_i0] and 800 intervals: one pass over the 8 nodes of
    # each cell, one over the 16 of its halves, each pass one call
    shaping = incline_base_shaping(incline_params, GainSelection(k=35.0, rho=2.0))
    A = incline_A_field(incline_params, shaping)
    calls = []

    def counted(u):
        calls.append(u[0].size)
        return A.fn(u)

    _HCurve(fl.SmoothField(1, counted), incline_safe_span(incline_params, 35.0,
                                                         INCLINE_LOOP_SPAN))
    assert calls == [801 * 8, 1602 * 8]


def test_unclipped_h_curve_across_the_pole_raises(incline_params):
    # at k = 4 the poles of A(x) lie inside (-1.1, 1.1)
    shaping = incline_base_shaping(incline_params, GainSelection(k=4.0, rho=2.0))
    with pytest.raises(ValueError, match=r"cumulative integral: no convergence in the cell \["):
        _HCurve(incline_A_field(incline_params, shaping), (-1.1, 1.1))


def test_non_finite_integrand_is_named_without_warning():
    with pytest.raises(ValueError, match=r"the integrand is nan at x = -0\.\d+, in the cell "
                                         r"\[-0\.5, -0\.25\]"):
        _cumulative_integral(np.log, np.linspace(-0.5, 1.0, 7))


def test_cumulative_integral_sums_outward_from_zero():
    xs = np.linspace(-1.0, 2.0, 13)
    vals = _cumulative_integral(lambda x: 3.0 * x * x, xs)
    assert vals[4] == 0.0
    assert np.abs(vals - xs ** 3).max() < 1e-14


# ---------------------------------------------------------------------------
# shaped energy
# ---------------------------------------------------------------------------

def test_shaped_energy_minimum_at_equilibrium(reference_params, cartpole, gains):
    shp = cartpole_shaping(reference_params, gains)
    pot = cartpole_shaped_potential(reference_params, gains, (-1.2, 1.2))
    e0 = shaped_energy(cartpole, shp, pot, State(q=[0.0, 0.0], qdot=[0.0, 0.0]))
    assert e0 == pytest.approx(pot.value(np.array([0.0])))
    for x in (-0.5, 0.3, 0.9):
        assert shaped_energy(cartpole, shp, pot,
                             State(q=[x, 0.0], qdot=[0.0, 0.0])) > e0


@pytest.mark.parametrize("system", ["cartpole", "incline"])
def test_energy_observer_rows_are_shaped_energy(monkeypatch, reference_params,
                                                incline_params, system):
    # every row that sim.observe writes, on both sides of its block
    # boundaries, is the float of shaped_energy at that state under the loop's
    # base shaping and the potential the loop built
    made = {}

    def recorded(name):
        fn = getattr(ctl, name)

        def wrapper(*args, **kwargs):
            made["pot"] = fn(*args, **kwargs)
            return made["pot"]
        return wrapper

    if system == "cartpole":
        p, gains = reference_params, GainSelection(k=35.0, sigma=0.5)
        monkeypatch.setattr(ctl, "cartpole_shaped_potential",
                            recorded("cartpole_shaped_potential"))
        loop, _, energy = ctl.cartpole_observed_loop(p, gains, 1.2)
        sys_, shp = cartpole_system(p), cartpole_shaping(p, gains)
    else:
        p, gains = incline_params, GainSelection(k=35.0, sigma=1.0, rho=2.0, c=6.0)
        monkeypatch.setattr(ctl, "incline_shaped_potential",
                            recorded("incline_shaped_potential"))
        loop, _, energy = ctl.incline_observed_loop(p, gains, (-1.1, 1.1))
        sys_, shp = incline_system(p), incline_base_shaping(p, gains)
    rows = 2 * OBSERVE_BLOCK + 5
    rng = np.random.default_rng(43)
    states = np.column_stack([rng.uniform(-1.0, 1.0, rows), rng.uniform(-2.0, 2.0, rows),
                              rng.uniform(-3.0, 3.0, (rows, 2))])
    traj = observe(Trajectory(dims=loop.dims, times=np.arange(rows) * 1e-3, states=states),
                   energy=energy)
    near_edges = [r + i for r in (0, OBSERVE_BLOCK, 2 * OBSERVE_BLOCK) for i in (-2, -1, 0, 1)
                  if 0 <= r + i < rows]
    for r in sorted(set(near_edges) | set(rng.choice(rows, 200, replace=False).tolist())):
        state = State(q=states[r, :2], qdot=states[r, 2:])
        assert traj.energies[r] == shaped_energy(sys_, shp, made["pot"], state), r


def test_equilibrium_preserved(reference_params, incline_params, gains, incline_gains):
    loop = cartpole_closed_loop(reference_params, gains)
    acc = loop.gamma_floats(np.array([0.0, 1.7]), np.array([0.0, 0.0]))
    assert np.abs(acc).max() == 0.0
    h = incline_h_curve(incline_params, incline_base_shaping(incline_params, incline_gains),
                        incline_gains.k, (-1.5, 1.5))
    loop_i = incline_closed_loop(incline_params, incline_gains, h)
    acc_i = loop_i.gamma_floats(np.array([0.0, incline_gains.s0]), np.array([0.0, 0.0]))
    assert np.abs(acc_i).max() < 1e-12


def test_incline_rk4_reads_h_only_through_at(incline_params, incline_gains, monkeypatch):
    def refuse(self, x):
        raise AssertionError("the float RK4 path called Curve.__call__")

    monkeypatch.setattr(fl.Curve, "__call__", refuse)
    h = incline_h_curve(incline_params, incline_base_shaping(incline_params, incline_gains),
                        incline_gains.k, INCLINE_LOOP_SPAN)
    loop = incline_closed_loop(incline_params, incline_gains, h)
    traj = integrate(loop, State(q=np.array([0.2, 0.1]), qdot=np.zeros(2)), 1e-3, 0.2)
    assert len(traj.times) == 201 and not traj.events


def test_incline_conserved_potential_gradient(incline_params, incline_gains):
    # the conserved-potential gradient agrees with the generic reconstruction
    p = incline_params
    sys_ = incline_system(p)
    shp = incline_shaping(p, incline_gains)
    base = incline_base_shaping(p, incline_gains)
    pot = incline_shaped_potential(
        p, incline_gains, incline_h_curve(p, base, incline_gains.k, (-1.25, 1.25)))
    loop = incline_closed_loop(
        p, incline_gains, incline_h_curve(p, base, incline_gains.k, (-1.5, 1.5)))
    for q in (np.array([0.25, 0.4]), np.array([-0.4, -0.2])):
        grad = reconstruct_shaped_potential_gradient(sys_, shp, loop, q)
        assert np.abs(grad - pot.gradient(q)).max() < 1e-8


def test_incline_observed_loop_is_freed_without_the_cycle_collector(incline_params,
                                                                    incline_gains, monkeypatch):
    # no reference cycle holds the h-curve or the potential's curve, so a sweep
    # row's curves and their float-read rows go as soon as the row drops them
    curves = []

    def recorded(make):
        def make_and_record(*args):
            curves.append(make(*args))
            return curves[-1]
        return make_and_record

    monkeypatch.setattr(ctl, "incline_h_curve", recorded(ctl.incline_h_curve))
    monkeypatch.setattr(ctl, "Curve", recorded(ctl.Curve))
    gc.disable()
    try:
        loop, control, energy = ctl.incline_observed_loop(incline_params, incline_gains,
                                                          (-1.1, 1.1))
        traj = integrate(loop, State(q=np.array([0.2, 0.1]), qdot=np.zeros(2)), 1e-3, 0.2,
                         control=control, energy=energy)
        assert len(traj.times) == 201 and np.isfinite(traj.energies).all()
        refs = [weakref.ref(c) for c in curves]
        del loop, control, energy, traj, curves[:]
        assert len(refs) == 2 and all(r() is None for r in refs)
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# the closed-loop key that a sweep shares marches by
# ---------------------------------------------------------------------------

def test_cartpole_loop_reads_k_alone(reference_params):
    # sigma and rho reach the shaped energy and gtilde, not the closed loop
    p = reference_params
    rng = np.random.default_rng(24)
    states = rng.uniform([-1.3, -2.0, -3.0, -3.0], [1.3, 2.0, 3.0, 3.0], size=(200, 4)).tolist()
    state0 = State(q=np.array([0.4, 0.0]), qdot=np.array([0.1, -0.5]))
    keys, accels, trajs = set(), set(), set()
    for sigma in (0.3, 1.0, 3.0):
        for rho in (-0.7, 1.0, 2.0):
            gains = GainSelection(k=35.0, sigma=sigma, rho=rho)
            loop = cartpole_closed_loop(p, gains)
            keys.add(ctl.closed_loop_key(p, gains))
            accels.add(np.array([loop.floats(*s) for s in states]).tobytes())
            traj = integrate(loop, state0, 1e-3, 2.0)
            assert len(traj.times) == 2001 and not traj.events
            trajs.add(traj.states.tobytes())
    assert keys == {(35.0,)}
    assert len(accels) == 1 and len(trajs) == 1


def test_incline_loop_key_holds_every_gain_its_loop_reads(incline_params, incline_gains):
    # changing any gain in the key changes the trajectory; c is outside it
    p, base = incline_params, incline_gains
    state0 = State(q=np.array([0.2, 0.1]), qdot=np.zeros(2))

    def run(gains):
        loop = ctl.incline_observed_loop(p, gains, (-1.1, 1.1))[0]
        traj = integrate(loop, state0, 1e-3, 2.0)
        assert len(traj.times) == 2001 and not traj.events
        return ctl.closed_loop_key(p, gains), traj.states.tobytes()

    key0, states0 = run(base)
    assert key0 == (base.k, base.sigma, base.rho, base.s0)
    for change in ({"k": 36.0}, {"sigma": 1.5}, {"rho": 2.5}, {"s0": 0.05}):
        key, states = run(replace(base, **change))
        assert key != key0 and states != states0, change
    assert run(replace(base, c=base.c + 1.0)) == (key0, states0)
