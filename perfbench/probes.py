"""Direct calls at fixed, seeded inputs: the unit costs the traced run can
only show in aggregate.  Each probe reports the min and the median over
repeated batches of the time per call."""

from __future__ import annotations

import random
import statistics
from pathlib import Path
from time import perf_counter

BATCH_S = 0.02      # calls per batch are chosen so one batch takes about this long
REPEATS = 7


def time_per_call(fn, repeats: int = REPEATS) -> tuple[float, float]:
    """(median, min) seconds per call of ``fn()``."""
    fn()                                    # warm any lazy set-up
    n, t = 1, 0.0
    while True:
        t0 = perf_counter()
        for _ in range(n):
            fn()
        t = perf_counter() - t0
        if t >= BATCH_S or n >= 1 << 16:
            break
        n *= 2 if t <= 0 else max(2, min(16, int(BATCH_S / t) + 1))
    per_call = [t / n]
    for _ in range(repeats - 1):
        t0 = perf_counter()
        for _ in range(n):
            fn()
        per_call.append((perf_counter() - t0) / n)
    return statistics.median(per_call), min(per_call)


def run_probes(mc, seed: int, workdir: Path) -> dict[str, tuple[float, float]]:
    """name -> (median, min) per call, in the unit the name ends with."""
    import numpy as np
    ctl, lg, hh, mt, model, sim, jets = (mc.control, mc.lagrangian, mc.helmholtz,
                                         mc.matching, mc.model, mc.sim, mc.jets)
    rng = random.Random(f"probe:{seed}")
    cart = model.CartpoleParams()
    incl = model.InclineParams(psi=0.3)
    gains = ctl.GainSelection(k=35.0, sigma=1.0, rho=2.0, c=6.0)

    sys_c = model.cartpole_system(cart)
    shp_c = ctl.cartpole_shaping(cart, gains)
    loop_c = ctl.cartpole_closed_loop(cart, gains)
    sys_i = model.incline_system(incl)
    tau_i = mt.new_tau_closed_form(sys_i, gains.k)
    base_i = lg.ShapingParams(tau=((tau_i,),), sigma=lg.scalar_sigma_matrix(sys_i, 1.0),
                              rho=gains.rho)
    A = ctl.incline_A_field(incl, base_i)
    shp_i = ctl.incline_shaping(incl, gains)
    sys_b, sigma_b = model.synthetic_sm_system(1, model.Dims(1, 2))
    shp_b = lg.ShapingParams(tau=mt.sm3_tau(sys_b, sigma_b),
                             sigma=lg.scalar_sigma_matrix(sys_b, sigma_b))
    generic_b = lg.controlled_implicit_sode(sys_b, shp_b).to_explicit()

    x1 = np.array([rng.uniform(-1.0, 1.0)])
    qc = [rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0)]
    qdc = [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)]
    qdd = [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)]
    state_c = model.State(q=np.array(qc), qdot=np.array(qdc))
    state_i = model.State(q=np.array([rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0)]),
                          qdot=np.array([rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)]))
    qb = [rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)]
    qdb = [rng.uniform(-1.0, 1.0) for _ in range(3)]

    implicit_c = lg.controlled_implicit_sode(sys_c, shp_c)
    implicit_i = lg.controlled_implicit_sode(sys_i, shp_i)
    explicit_i = implicit_i.to_explicit()
    F_i = hh.legendre_fn(sys_i, shp_i)
    mult_i = hh.multiplier_from_shaping(sys_i, shp_i)

    def field_vgh():
        for f in (A, tau_i):
            f.value(x1)
            f.d1(x1)
            f.d2(x1)

    def el_covector_jet():
        seeds = jets.jet_vars(qc + qdc)
        implicit_c.phi(seeds[:2], seeds[2:], qdd)

    x0, th0, xd0, thd0 = qc + qdc
    steps = 200
    state0 = model.State(q=np.array([0.2, 0.0]), qdot=np.array([0.1, -1.0]))
    traj = sim.integrate(loop_c, state0, 1e-4, 2000 * 1e-4,
                         control=lambda t, Q, Qd: ctl.cartpole_control(cart, gains.k, Q[:, 0]),
                         energy=lambda t, Q, Qd: Q[:, 0])
    csv_path = workdir / "probe.csv"
    rows = len(traj.times)
    span = (-1.1, 1.1)

    probes = {
        "fields.field_vgh_us": (field_vgh, 1e6),
        "jets.closed_loop_jet_us": (lambda: loop_c.gamma_jets(qc, qdc), 1e6),
        "lagrangian.el_covector_jet_us": (el_covector_jet, 1e6),
        "lagrangian.solve_accel_us": (lambda: lg.solve_accel(implicit_c, state_c), 1e6),
        "lagrangian.generic_gamma_us": (lambda: generic_b.gamma_floats(qb, qdb), 1e6),
        "control.gamma2_us": (lambda: loop_c.gamma2(x0, th0, xd0, thd0), 1e6),
        "sim.rk4_step_us": (lambda: sim.integrate(loop_c, state0, 1e-4, steps * 1e-4),
                            1e6 / steps),
        "control.curve_probe_ms": (lambda: ctl._HCurve(A, span), 1e3),
        "helmholtz.implicit_probe_ms": (
            lambda: hh.implicit_helmholtz_residuals(implicit_i, F_i, state_i, sys_i.dims),
            1e3),
        "helmholtz.explicit_probe_ms": (
            lambda: hh.explicit_helmholtz_residuals(explicit_i, mult_i, state_i), 1e3),
        "sim.csv_row_us": (lambda: sim.write_csv(traj, csv_path), 1e6 / rows),
    }
    out = {}
    for name, (fn, scale) in probes.items():
        repeats = 3 if name == "control.curve_probe_ms" else REPEATS
        med, low = time_per_call(fn, repeats)
        out[name] = (med * scale, low * scale)
    csv_path.unlink(missing_ok=True)
    return out
