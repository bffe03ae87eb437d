"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

import matchctl.fields as fl
from conftest import random_state, sm_shaping
from matchctl.control import (GainSelection, cartpole_closed_loop,
                              cartpole_shaped_potential, cartpole_shaping, gain_bound,
                              gain_bound_crossing, incline_A_coefficient,
                              incline_A_field, incline_Veps, incline_closed_loop,
                              incline_h_curve, incline_hessian_check,
                              incline_shaped_potential,
                              incline_shaping, position_feedback_control,
                              shaped_multipliers)
from matchctl.helmholtz import (exactness_residuals, explicit_helmholtz_residuals,
                                implicit_helmholtz_residuals, legendre_fn,
                                multiplier_from_shaping, sode_tensors)
from matchctl.lagrangian import (ExplicitSode, ShapingParams, controlled_implicit_sode,
                                 feedback_control, scalar_sigma_matrix, solve_accel)
from matchctl.matching import (integrate_new_tau, matching_residuals,
                               new_tau_closed_form, new_tau_ode_residual)
from matchctl.model import CartpoleParams, Dims, InclineParams, State, cartpole_system, incline_system
from matchctl.sim import energy_drift, integrate


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


REF = CartpoleParams(m=0.14, M=0.44, l=0.215, grav=9.81)
GAINS = GainSelection(k=35.0, sigma=1.0)


def test_criterion_1_cartpole_reproduction():
    t0 = time.perf_counter()
    loop = cartpole_closed_loop(REF, GAINS)
    span = gain_bound_crossing(REF, GAINS.k) - 1e-6
    pot = cartpole_shaped_potential(REF, GAINS, (-span, span))

    def energy(times, Q, Qd):
        x = Q[:, 0]
        xd, sd = Qd[:, 0], Qd[:, 1]
        cx = np.cos(x)
        D = REF.alpha * REF.gamma - REF.beta ** 2 * cx ** 2
        g11 = REF.gamma * GAINS.k ** 2 * (GAINS.sigma + 1) * D \
            + 2 * REF.beta * GAINS.k * cx * np.sqrt(D) + REF.alpha
        g12 = REF.gamma * GAINS.k * np.sqrt(D) + REF.beta * cx
        return 0.5 * (g11 * xd ** 2 + 2 * g12 * xd * sd + REF.gamma * sd ** 2) \
            + pot.read(x)

    state0 = State(q=[math.pi / 2 - 0.2, 0.0], qdot=[0.1, -3.0])
    traj = integrate(loop, state0, dt=1e-4, t_end=10.0, energy=energy,
                     guard=lambda q, qd: abs(q[0]) >= math.pi / 2)
    runtime = time.perf_counter() - t0
    drift = energy_drift(traj)
    max_x = float(np.abs(traj.q()[:, 0]).max())
    ok = (not traj.events) and drift <= 1e-6 and runtime <= 5.0 \
        and len(traj.times) == 100001 and max_x < span
    report(1, "cart-pole reproduction", ok,
           f"drift={drift:.2e} (<=1e-6), events={traj.events}, "
           f"max|x|={max_x:.4f} (confined below {span:.4f}), runtime={runtime:.2f}s (<=5s)")


def test_criterion_2_helmholtz_verification():
    t0 = time.perf_counter()
    sys_ = cartpole_system(REF)
    shp = cartpole_shaping(REF, GAINS)
    field = controlled_implicit_sode(sys_, shp)
    loop = field.to_explicit()
    F = legendre_fn(sys_, shp)
    mult = multiplier_from_shaping(sys_, shp)
    rng = np.random.default_rng(0)
    worst_imp = worst_exp = 0.0
    for _ in range(100):
        st = State(q=[rng.uniform(-1.3, 1.3), rng.uniform(-2.0, 2.0)],
                   qdot=rng.uniform(-5.0, 5.0, 2))
        rep_i = implicit_helmholtz_residuals(field, F, st, sys_.dims, tol=1e-8)
        rep_e = explicit_helmholtz_residuals(loop, mult, st, tol=1e-8)
        worst_imp = max(worst_imp, rep_i.max_value())
        worst_exp = max(worst_exp, rep_e.max_value())
        assert rep_i.overall_pass and rep_e.overall_pass
    runtime = time.perf_counter() - t0
    ok = worst_imp <= 1e-8 and worst_exp <= 1e-8 and runtime <= 10.0
    report(2, "Helmholtz verification of the matched loop", ok,
           f"implicit max={worst_imp:.2e}, multiplier max={worst_exp:.2e} (<=1e-8), "
           f"100 states, runtime={runtime:.2f}s (<=10s)")


def test_criterion_3_new_tau_consistency():
    sys_ = cartpole_system(REF)
    tau = new_tau_closed_form(sys_, GAINS.k)
    t0 = tau.value(np.array([-1.3]))
    samp = integrate_new_tau(sys_, [t0], (-1.3, 1.3), step=1e-3)
    sup = max(abs(samp.value(x)[0] - tau.value(np.array([x])))
              for x in np.linspace(-1.3, 1.3, 261))
    worst_res = max(np.abs(new_tau_ode_residual(sys_, [tau], np.array([x]))).max()
                    for x in np.linspace(-1.3, 1.3, 261))
    ok = sup <= 1e-8 and worst_res <= 1e-10
    report(3, "shaping-ODE consistency", ok,
           f"integration vs closed form sup={sup:.2e} (<=1e-8), "
           f"closed-form ODE residual={worst_res:.2e} (<=1e-10)")


def test_criterion_4_matching_implication_suite():
    worst_m = worst_ihc = worst_ident = 0.0
    ident_classes = ("AB_ab", "AB_a_beta", "AA_ab", "AA_alpha_b")
    for seed in range(50):
        dims = (Dims(1, 1), Dims(1, 2), Dims(2, 1))[seed % 3]
        sys_, shp = sm_shaping(seed, dims)
        rng = np.random.default_rng(1000 + seed)
        for x in rng.uniform(-1.0, 1.0, size=(2, dims.n_shape)):
            worst_m = max(worst_m, matching_residuals(sys_, shp, x).max_value())
        field = controlled_implicit_sode(sys_, shp)
        F = legendre_fn(sys_, shp)
        for k in range(2):
            st = random_state(2000 + 10 * seed + k, dims)
            rep = implicit_helmholtz_residuals(field, F, st, dims, tol=1e-8)
            worst_ihc = max(worst_ihc, rep.max_value())
        # arbitrary tau: the identically-vanishing index classes
        rng2 = np.random.default_rng(3000 + seed)
        arb = tuple(tuple(0.5 * fl.sin_of(fl.linear(rng2.uniform(-1, 1, dims.n_shape),
                                                    rng2.uniform(0, 6), dims.n_shape))
                          for _ in range(dims.n_shape)) for _ in range(dims.n_group))
        shp2 = ShapingParams(tau=arb, sigma=shp.sigma)
        field2 = controlled_implicit_sode(sys_, shp2)
        F2 = legendre_fn(sys_, shp2)
        st = random_state(4000 + seed, dims)
        rep2 = implicit_helmholtz_residuals(field2, F2, st, dims)
        for name in ident_classes:
            entry = rep2.entry(name)
            if not entry.skipped:
                worst_ident = max(worst_ident, entry.value)
    ok = worst_m <= 1e-10 and worst_ihc <= 1e-8 and worst_ident <= 1e-9
    report(4, "matching implication suite (50 systems)", ok,
           f"matching max={worst_m:.2e} (<=1e-10), implicit max={worst_ihc:.2e} (<=1e-8), "
           f"identically-vanishing classes max={worst_ident:.2e} (<=1e-9)")


def test_criterion_5_velocity_independence():
    sys_ = cartpole_system(REF)
    shp = cartpole_shaping(REF, GAINS)
    tau_fields = [shp.tau[0][0]]
    field = controlled_implicit_sode(sys_, shp)
    rng = np.random.default_rng(7)
    q = np.array([0.45, -0.3])
    base = position_feedback_control(sys_, tau_fields, q)
    max_diff = 0.0
    for _ in range(100):
        qd1 = rng.uniform(-5, 5, 2)
        qd2 = rng.uniform(-5, 5, 2)
        u1 = position_feedback_control(sys_, tau_fields, q)
        u2 = position_feedback_control(sys_, tau_fields, q)
        max_diff = max(max_diff, float(np.abs(u1 - u2).max()))
    worst_agree = 0.0
    for _ in range(20):
        st = State(q=q, qdot=rng.uniform(-5, 5, 2))
        acc = solve_accel(field, st)
        u_gen = feedback_control(sys_, shp, st, acc)
        worst_agree = max(worst_agree, float(np.abs(u_gen - base).max()))
    ok = max_diff == 0.0 and worst_agree <= 1e-10
    report(5, "velocity independence of the position feedback", ok,
           f"velocity-pair spread={max_diff} (exactly 0), "
           f"general-feedback agreement={worst_agree:.2e} (<=1e-10)")


def test_criterion_6_gain_bound():
    kmin = gain_bound(REF, 0.0)
    ok = abs(kmin - 3.0566) <= 1e-3 and 35.0 > kmin
    report(6, "gain bound at the equilibrium", ok,
           f"k_min(0)={kmin:.5f} (3.0566 +/- 1e-3), k=35 passes")


def test_criterion_7_incline_suite():
    p = InclineParams(m=0.14, M=0.44, l=0.215, grav=9.81, psi=0.3)
    sys_ = incline_system(p)
    base_shp = ShapingParams(tau=((new_tau_closed_form(sys_, 35.0),),),
                             sigma=scalar_sigma_matrix(sys_, 1.0), rho=2.0)
    base_gains = GainSelection(k=35.0, sigma=1.0, rho=2.0)
    _, _, c_min = incline_hessian_check(p, base_shp, base_gains)
    gains = GainSelection(k=35.0, sigma=1.0, rho=2.0, c=c_min + 1.0, s0=0.0)
    shp = incline_shaping(p, gains)

    # extra-potential equation residual on a 41 x 41 grid, by differences of
    # the quadrature-evaluated potential (Richardson-refined in x)
    A = incline_A_field(p, shp)
    xs = np.linspace(-1.0, 1.0, 41)
    ss = np.linspace(-1.0, 1.0, 41)
    h = 3e-3
    hvals = {}

    def hq(x):
        if x not in hvals:
            from scipy.integrate import quad
            hvals[x] = quad(lambda r: A.value(np.array([r])), 0.0, x,
                            epsabs=1e-12, epsrel=1e-10)[0]
        return hvals[x]

    slope = p.gamma * p.grav * math.sin(p.psi)

    def veps(x, s):
        return slope * s + 0.5 * s * s - s * hq(x) + gains.c * x * x \
            - gains.s0 * s + gains.s0 * hq(x)

    worst_pde = 0.0
    for x in xs:
        def cross(hh):
            return np.array([(veps(x + hh, s + hh) - veps(x + hh, s - hh)
                              - veps(x - hh, s + hh) + veps(x - hh, s - hh))
                             / (4 * hh * hh) for s in ss])

        vsx = (4.0 * cross(h / 2) - cross(h)) / 3.0
        vss = np.array([(veps(x, s + h) - 2 * veps(x, s) + veps(x, s - h)) / h ** 2
                        for s in ss])
        res = A.value(np.array([x])) * vss + vsx
        worst_pde = max(worst_pde, float(np.abs(res).max()))

    # critical point of the total displayed potential at (0, s0)
    _, grad, hx = incline_Veps(p, shp, gains, (0.0, gains.s0))
    dV = sys_.V_d1(np.array([0.0, gains.s0]))
    crit = float(np.abs(dV + grad).max())

    # positive definiteness exactly above the quadratic-coefficient threshold
    _, pd_above, _ = incline_hessian_check(p, shp, gains)
    _, pd_at, _ = incline_hessian_check(
        p, shp, GainSelection(k=35.0, sigma=1.0, rho=2.0, c=c_min))
    _, pd_below, _ = incline_hessian_check(
        p, shp, GainSelection(k=35.0, sigma=1.0, rho=2.0, c=c_min - 0.5))
    hess_ok = pd_above and (not pd_at) and (not pd_below)

    # determinant bookkeeping of the shaped multipliers
    worst_det = 0.0
    tau_f = base_shp.tau[0][0]
    for x in (-0.6, 0.0, 0.5):
        sm = shaped_multipliers(sys_, base_shp, np.array([x, 0.0]))
        tau = tau_f.value(np.array([x]))
        worst_det = max(worst_det, abs(sm.Dtilde - gains.rho *
                                       (sm.D + gains.sigma * (p.gamma * tau) ** 2)))

    # closed-loop conservation over 10 s with the conserved shaped potential
    loop = incline_closed_loop(p, gains, incline_h_curve(p, base_shp, gains.k, (-1.5, 1.5)))
    pot = incline_shaped_potential(
        p, gains, incline_h_curve(p, base_shp, gains.k, (-1.05, 1.05)), x_span=(-1.0, 1.0))

    def energy(times, Q, Qd):
        x, s = Q[:, 0], Q[:, 1]
        xd, sd = Qd[:, 0], Qd[:, 1]
        cpx = np.cos(p.psi - x)
        D = p.alpha * p.gamma - p.beta ** 2 * cpx ** 2
        t = gains.k * np.sqrt(D)
        g11b = p.alpha + p.beta ** 2 * (gains.rho - 1) * cpx ** 2 / p.gamma \
            + 2 * p.beta * gains.rho * cpx * t + p.gamma * (gains.rho + gains.sigma) * t ** 2
        g12b = gains.rho * (p.beta * cpx + p.gamma * t)
        return 0.5 * (g11b * xd ** 2 + 2 * g12b * xd * sd
                      + gains.rho * p.gamma * sd ** 2) + pot.value_arrays(x, s)

    traj = integrate(loop, State(q=[0.2, 0.1], qdot=[0.0, 0.0]), dt=1e-3, t_end=10.0,
                     energy=energy, guard=lambda q, qd: abs(q[0]) >= math.pi / 2)
    drift = energy_drift(traj)

    ok = worst_pde <= 1e-8 and crit <= 1e-10 and hess_ok and worst_det <= 1e-12 \
        and (not traj.events) and drift <= 1e-6
    report(7, "incline suite", ok,
           f"pde={worst_pde:.2e} (<=1e-8), critical-point={crit:.2e} (<=1e-10), "
           f"hessian iff c>c_min={hess_ok}, det relation={worst_det:.2e} (<=1e-12), "
           f"drift={drift:.2e} (<=1e-6), events={traj.events}")


def test_criterion_8_douglas_spot_check():
    # the curvature endomorphism of the closed loop is not a multiple of the
    # identity: the group columns vanish identically (the loop is independent
    # of the group point and velocity), the shape-shape entry does not
    loop = cartpole_closed_loop(REF, GAINS)
    tens = sode_tensors(loop, State(q=[0.2, 0.0], qdot=[0.1, 0.0]))
    J = tens.jacobi
    norm = max(1.0, float(np.abs(J).max()))
    witness = abs(J[0, 0]) / norm
    group_col = float(np.abs(J[:, 1]).max())
    iso_defect = float(np.abs(J - 0.5 * np.trace(J) * np.eye(2)).max()) / norm
    ok = witness > 1e-6 and group_col == 0.0 and iso_defect > 1e-6
    report(8, "endomorphism spot check", ok,
           f"|shape-shape|/norm={witness:.3f} (>1e-6), group column={group_col}, "
           f"non-isotropy={iso_defect:.3f}")


def test_criterion_9_numerics_hygiene():
    # jet and difference derivative paths agree on every residual family
    sys_ = cartpole_system(REF)
    shp = cartpole_shaping(REF, GAINS)
    field = controlled_implicit_sode(sys_, shp)
    loop = field.to_explicit()
    F = legendre_fn(sys_, shp)
    mult = multiplier_from_shaping(sys_, shp)
    plain = __import__("matchctl.lagrangian", fromlist=["uncontrolled_sode"])
    un = plain.uncontrolled_sode(sys_)
    rng = np.random.default_rng(21)
    worst_rel = 0.0

    def compare(rep_a, rep_b):
        nonlocal worst_rel
        for ea, eb in zip(rep_a.entries, rep_b.entries):
            if ea.skipped or not ea.residual:
                continue
            rel = abs(ea.value - eb.value) / max(1.0, ea.value, eb.value)
            worst_rel = max(worst_rel, rel)

    for _ in range(5):
        st = State(q=[rng.uniform(-1.2, 1.2), rng.uniform(-1, 1)],
                   qdot=rng.uniform(-3, 3, 2))
        compare(implicit_helmholtz_residuals(field, F, st, sys_.dims),
                implicit_helmholtz_residuals(field, F, st, sys_.dims, backend="fd"))
        compare(explicit_helmholtz_residuals(loop, mult, st),
                explicit_helmholtz_residuals(loop, mult, st, backend="fd"))
        acc = solve_accel(un, st)
        compare(exactness_residuals(un, st, acc),
                exactness_residuals(un, st, acc, backend="fd"))

    # fourth-order convergence on the harmonic oscillator
    ho = ExplicitSode(1, lambda q, qd: [-1.0 * q[0]])
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        traj = integrate(ho, State(q=[1.0], qdot=[0.0]), dt=dt, t_end=2.0)
        errs.append(abs(traj.q()[-1, 0] - math.cos(2.0)))
    ratios = (errs[0] / errs[1], errs[1] / errs[2])
    order_ok = all(8.0 < r < 32.0 for r in ratios)

    ok = worst_rel <= 1e-5 and order_ok
    report(9, "numerics hygiene", ok,
           f"jet-vs-difference agreement={worst_rel:.2e} (<=1e-5), "
           f"step-halving error ratios={ratios[0]:.1f}, {ratios[1]:.1f} (16x +/- 2x)")
