"""Command-line front door.

Subcommands: check-matching, check-helmholtz, synthesize-tau, simulate, sweep.
Configuration is a flat key = value file with # comments and dotted section
prefixes (grammar documented in the README).  Exit codes: 0 pass/success,
1 residual or simulation failure, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys as _sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import control as ctl
from . import fields as fl
from . import helmholtz as hh
from . import matching as mt
from . import sim as simmod
from .lagrangian import ShapingParams, controlled_implicit_sode, scalar_sigma_matrix
from .model import (CartpoleParams, Dims, InclineParams, State, cartpole_system,
                    incline_system, synthetic_sm_system, validate_system)
from .report import ResidualEntry, ResidualReport

__all__ = ["main", "RunConfig", "ConfigError", "parse_config"]


class ConfigError(ValueError):
    pass


def parse_config(path) -> dict[str, str]:
    """Flat `key = value` lines; `#` starts a comment; dotted keys allowed."""
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {ln}: expected key = value")
        key, val = stripped.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _get(cfg: dict, key: str, cast, default=None):
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing config key: {key}")
        return default
    try:
        return cast(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {cfg[key]!r}") from exc


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


@dataclass
class RunConfig:
    """A resolved config; `load` gives every key its default."""

    system: str
    params: CartpoleParams | InclineParams | None
    tau_mode: str
    gains: ctl.GainSelection
    dt: float
    t_end: float
    ic: list[float]
    guard: float
    grid_n: int
    grid_lo: float
    grid_hi: float
    tol_residual: float
    tol_matching: float
    tol_drift: float
    seed: int
    n_states: int
    v_max: float
    out_dir: str
    builtin_seed: int
    builtin_shape: int
    builtin_group: int
    sweep_k: list[float]
    sweep_sigma: list[float]
    sweep_rho: list[float]

    @staticmethod
    def load(path, overrides: argparse.Namespace) -> "RunConfig":
        cfg = parse_config(path)
        system = _get(cfg, "system", str)
        if system not in ("cartpole", "incline", "builtin-test"):
            raise ConfigError(f"unknown system: {system}")
        params = None
        if system in ("cartpole", "incline"):
            base = dict(
                m=_get(cfg, "params.m", float, 0.14),
                M=_get(cfg, "params.M", float, 0.44),
                l=_get(cfg, "params.l", float, 0.215),
                grav=_get(cfg, "params.grav", float, 9.81),
            )
            if system == "incline":
                params = _checked("params", InclineParams,
                                  psi=_get(cfg, "params.psi", float), **base)
            else:
                params = _checked("params", CartpoleParams, **base)
        tau_mode = _get(cfg, "tau.mode", str, "new-closed-form")
        if tau_mode not in ("sm3", "new-closed-form", "new-ode"):
            raise ConfigError(f"unknown tau mode: {tau_mode}")
        sigma = _get(cfg, "gains.sigma", float, 1.0)
        if tau_mode == "sm3" and sigma == 0.0:
            raise ConfigError("sm3 tau requires nonzero sigma")
        gains = _checked(
            "gains", ctl.GainSelection,
            k=_get(cfg, "gains.k", float, 35.0),
            sigma=sigma,
            rho=_get(cfg, "gains.rho", float, 1.0),
            c=_get(cfg, "gains.c", float, 0.0),
            s0=_get(cfg, "gains.s0", float, 0.0),
        )
        rc = RunConfig(
            system=system, params=params, tau_mode=tau_mode, gains=gains,
            dt=_get(cfg, "sim.dt", float, 1e-4),
            t_end=_get(cfg, "sim.t_end", float, 10.0),
            ic=_get(cfg, "sim.ic", _floats, [0.0, 0.0, 0.0, 0.0]),
            guard=_get(cfg, "sim.guard", float, math.pi / 2),
            grid_n=_get(cfg, "grid.n", int, 41),
            grid_lo=_get(cfg, "grid.lo", float, -1.3),
            grid_hi=_get(cfg, "grid.hi", float, 1.3),
            tol_residual=_get(cfg, "tol.residual", float, 1e-8),
            tol_matching=_get(cfg, "tol.matching", float, 1e-10),
            tol_drift=_get(cfg, "tol.drift", float, 1e-6),
            seed=_get(cfg, "seed", int, 0),
            n_states=_get(cfg, "helmholtz.n_states", int, 100),
            v_max=_get(cfg, "helmholtz.v_max", float, 5.0),
            out_dir=_get(cfg, "out.dir", str, "."),
            builtin_seed=_get(cfg, "builtin.seed", int, 1),
            builtin_shape=_get(cfg, "builtin.n_shape", int, 1),
            builtin_group=_get(cfg, "builtin.n_group", int, 2),
            sweep_k=_get(cfg, "sweep.k", _floats, []),
            sweep_sigma=_get(cfg, "sweep.sigma", _floats, []),
            sweep_rho=_get(cfg, "sweep.rho", _floats, []),
        )
        if overrides.tol is not None:
            rc.tol_residual = overrides.tol
        if overrides.grid is not None:
            rc.grid_n = overrides.grid
        if overrides.seed is not None:
            rc.seed = overrides.seed
        if overrides.out is not None:
            rc.out_dir = overrides.out
        for key, value in (("grid.n", rc.grid_n), ("helmholtz.n_states", rc.n_states),
                           ("builtin.n_shape", rc.builtin_shape),
                           ("builtin.n_group", rc.builtin_group)):
            if value < 1:
                raise ConfigError(f"{key} must be at least 1, got {value}")
        for key, value in (("tol.residual", rc.tol_residual), ("tol.matching", rc.tol_matching),
                           ("tol.drift", rc.tol_drift)):
            if not value > 0:
                raise ConfigError(f"{key} must be positive, got {value!r}")
        for key, value in (("sim.dt", rc.dt), ("sim.t_end", rc.t_end)):
            if not 0 < value < math.inf:
                raise ConfigError(f"{key} must be positive and finite, got {value!r}")
        for key, value in (("seed", rc.seed), ("builtin.seed", rc.builtin_seed)):
            if value < 0:
                raise ConfigError(f"{key} must be non-negative, got {value}")
        if math.isnan(rc.guard):
            raise ConfigError("sim.guard must not be NaN")
        if not 0 <= rc.v_max < math.inf:
            raise ConfigError(f"helmholtz.v_max must be finite and non-negative, "
                              f"got {rc.v_max!r}")
        lo, hi = rc.grid_lo, rc.grid_hi
        if not (-math.inf < lo <= hi < math.inf and (lo < hi or rc.tau_mode != "new-ode")):
            raise ConfigError(f"grid.lo and grid.hi must be finite with grid.lo <= grid.hi "
                              f"(< for new-ode), got grid.lo = {lo!r}, grid.hi = {hi!r}")
        return rc


def _checked(section: str, make, *args, **values):
    """``make(*args, **values)``; its ValueError, which starts with the field
    name, is a ConfigError under the config section."""
    try:
        return make(*args, **values)
    except ValueError as exc:
        raise ConfigError(f"{section}.{exc}") from exc


def _require_gain_window(rc: RunConfig, span: tuple[float, float] | None = None) -> None:
    """The pole-free window of the shaped system around x = 0 exists only for
    k above the gain bound at the equilibrium.  For the incline it must also
    keep part of ``span``, the shape span the command builds its curves on
    (just above the bound it is narrower than its margins), and hold x = 0,
    where those curves are anchored."""
    kmin = ctl.gain_bound(rc.params, 0.0)
    if not rc.gains.k > kmin:
        raise ConfigError(f"gains.k = {rc.gains.k!r} must exceed the gain bound "
                          f"{kmin!r} at the equilibrium")
    if span is not None:
        try:
            ctl.incline_safe_span(rc.params, rc.gains.k, span)
        except ValueError as exc:
            raise ConfigError(f"gains.k = {rc.gains.k!r}: {exc}") from exc


def _build_system_and_shaping(rc: RunConfig):
    """System, shaping and sigma scalar for the configured tau mode."""
    if rc.system == "cartpole":
        sys_ = cartpole_system(rc.params)
    elif rc.system == "incline":
        sys_ = incline_system(rc.params)
    else:
        sys_, sigma = synthetic_sm_system(rc.builtin_seed,
                                          Dims(rc.builtin_shape, rc.builtin_group))
        tau = mt.sm3_tau(sys_, sigma)
        shp = ShapingParams(tau=tau, sigma=scalar_sigma_matrix(sys_, sigma))
        return sys_, shp

    if rc.tau_mode == "sm3":
        tau = mt.sm3_tau(sys_, rc.gains.sigma)
    elif rc.tau_mode == "new-closed-form":
        tau = ((mt.new_tau_closed_form(sys_, rc.gains.k),),)
    else:  # new-ode
        closed = mt.new_tau_closed_form(sys_, rc.gains.k)
        t0 = closed.value(np.array([rc.grid_lo]))
        sampled = mt.integrate_new_tau(sys_, [t0], (rc.grid_lo, rc.grid_hi))
        tau = tuple(sampled.as_fields())
    sigma_mat = scalar_sigma_matrix(sys_, rc.gains.sigma)
    if rc.system == "incline" and rc.gains.rho != 1.0:
        _require_gain_window(rc, ctl.INCLINE_LOOP_SPAN)
        base = ShapingParams(tau=tau, sigma=sigma_mat, rho=rc.gains.rho)
        veps = ctl.incline_veps_field(rc.params, base, rc.gains)
        shp = ShapingParams(tau=tau, sigma=sigma_mat, rho=rc.gains.rho,
                            epsilon_potential=veps)
    else:
        shp = ShapingParams(tau=tau, sigma=sigma_mat)
    return sys_, shp


def _shape_grid(rc: RunConfig, n_shape: int) -> np.ndarray:
    """The configured grid as shape points (grid.n, n_shape), every coordinate
    of a point at the same grid value."""
    xs = np.linspace(rc.grid_lo, rc.grid_hi, rc.grid_n)
    return np.repeat(xs[:, None], n_shape, axis=1)


def _emit(args, doc: dict, text: str) -> None:
    if args.json:
        print(json.dumps(doc, indent=2, default=float))
    else:
        print(text)


def cmd_check_matching(args) -> int:
    rc = RunConfig.load(args.config, args)
    sys_, shp = _build_system_and_shaping(rc)
    grid = _shape_grid(rc, sys_.dims.n_shape)
    reports = [
        mt.check_on_grid(mt.matching_residuals, sys_, shp, grid, tol=rc.tol_matching),
        mt.check_on_grid(mt.simplified_matching_residuals, sys_, shp, grid,
                         tol=rc.tol_matching),
        mt.check_on_grid(mt.generalized_matching_residuals, sys_, shp, grid,
                         tol=rc.tol_matching),
        validate_system(sys_, n_samples=max(5, rc.grid_n // 4),
                        x_range=(rc.grid_lo, rc.grid_hi), seed=rc.seed),
    ]
    # builtin-test always shapes with the SM3 tau, so the new-tau ODE says nothing there
    if rc.system in ("cartpole", "incline") and rc.tau_mode in ("new-closed-form", "new-ode"):
        res = mt.new_tau_ode_residual(sys_, [row[0] for row in shp.tau], grid)
        # the worst point; a NaN anywhere reads NaN and fails
        worst = float(np.abs(res).max())
        ode_rep = ResidualReport("tau ODE residual (grid max)")
        tol = 1e-10 if rc.tau_mode == "new-closed-form" else mt.TAU_RESIDUAL_TOL
        ode_rep.add(ResidualEntry.from_value("tau_ode", worst, tol))
        reports.append(ode_rep)

    # the applicable set decides the exit code
    if rc.tau_mode == "sm3" or rc.system == "builtin-test":
        ok = reports[0].overall_pass and reports[1].overall_pass
    else:
        simp = reports[1]
        ok = all(simp.entry(nm).passed or simp.entry(nm).skipped
                 for nm in ("SM1", "SM2", "SM4"))
        ok = ok and reports[-1].overall_pass
    ok = ok and reports[3].overall_pass
    doc = {"command": "check-matching", "pass": ok,
           "reports": [r.to_dict() for r in reports]}
    _emit(args, doc, "\n\n".join(str(r) for r in reports)
          + f"\n\noverall: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _random_states(rc: RunConfig, n_coords: int, n_shape: int) -> State:
    """The configured number of random states as one batch (N, n), drawn state
    by state: shape point, group point, velocities."""
    rng = np.random.default_rng(rc.seed)
    q, qd = [], []
    for _ in range(rc.n_states):
        x = rng.uniform(rc.grid_lo, rc.grid_hi, size=n_shape)
        th = rng.uniform(-2.0, 2.0, size=n_coords - n_shape)
        qd.append(rng.uniform(-rc.v_max, rc.v_max, size=n_coords))
        q.append(np.concatenate([x, th]))
    return State(q=np.array(q), qdot=np.array(qd))


def cmd_check_helmholtz(args) -> int:
    rc = RunConfig.load(args.config, args)
    sys_, shp = _build_system_and_shaping(rc)
    field = controlled_implicit_sode(sys_, shp)
    states = _random_states(rc, sys_.dims.total, sys_.dims.n_shape)
    reps = [
        hh.implicit_helmholtz_residuals(field, hh.legendre_fn(sys_, shp), states, sys_.dims,
                                        tol=rc.tol_residual),
        hh.explicit_helmholtz_residuals(field.to_explicit(), hh.multiplier_from_shaping(sys_, shp),
                                        states, tol=rc.tol_residual),
    ]
    reps = [ResidualReport(f"{r.title} ({rc.n_states} states)", r.entries) for r in reps]
    ok = all(r.overall_pass for r in reps)
    doc = {"command": "check-helmholtz", "pass": ok,
           "reports": [r.to_dict() for r in reps]}
    _emit(args, doc, "\n\n".join(str(r) for r in reps)
          + f"\n\noverall: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_synthesize_tau(args) -> int:
    rc = RunConfig.load(args.config, args)
    sys_, shp = _build_system_and_shaping(rc)
    grid = _shape_grid(rc, sys_.dims.n_shape)
    ((tau, dtau),) = fl.eval_blocks([shp.tau], grid)
    rows = np.concatenate([grid[:, :1], tau.reshape(len(grid), -1),
                           dtau.reshape(len(grid), -1)], axis=1)
    out_dir = Path(rc.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dest = out_dir / "tau_samples.csv"
    ng, ns = shp.n_group, shp.n_shape
    header = ["x"] + [f"tau{a + 1}_{al + 1}" for a in range(ng) for al in range(ns)] \
        + [f"dtau{a + 1}_{al + 1}_{k + 1}" for a in range(ng) for al in range(ns)
           for k in range(ns)]
    with open(dest, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")

    gains_doc = {"k": rc.gains.k, "sigma": rc.gains.sigma, "rho": rc.gains.rho,
                 "c": rc.gains.c, "s0": rc.gains.s0}
    ok = True
    if rc.system in ("cartpole", "incline"):
        kmin = ctl.gain_bound(rc.params, 0.0)
        gains_doc["k_min_at_0"] = kmin
        gains_doc["k_passes_bound"] = bool(rc.gains.k > kmin)
        if rc.tau_mode in ("new-closed-form", "new-ode"):
            ok = bool(rc.gains.k > kmin)
    doc = {"command": "synthesize-tau", "pass": ok, "gains": gains_doc,
           "samples": str(dest)}
    _emit(args, doc, f"wrote {dest}\n" + "\n".join(f"{k} = {v}" for k, v in gains_doc.items())
          + f"\noverall: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _incline_potential_span(rc: RunConfig) -> tuple[float, float]:
    """Shape span of the incline's shaped potential: the grid and a margin."""
    return rc.grid_lo - 0.1, rc.grid_hi + 0.1


def _closed_loop_and_observers(rc: RunConfig):
    if rc.system == "cartpole":
        return ctl.cartpole_observed_loop(rc.params, rc.gains,
                                          1.02 * max(rc.guard, max(abs(rc.ic[0]), 0.5)))
    if rc.system == "incline":
        return ctl.incline_observed_loop(rc.params, rc.gains, _incline_potential_span(rc))
    # builtin-test: generic machinery, no tailored observers
    sys_, shp = _build_system_and_shaping(rc)
    loop = controlled_implicit_sode(sys_, shp).to_explicit()
    return loop, None, None


def _initial_state(rc: RunConfig, n: int) -> State:
    if len(rc.ic) != 2 * n:
        raise ConfigError(f"sim.ic needs {2 * n} comma-separated values")
    return State(q=np.array(rc.ic[:n]), qdot=np.array(rc.ic[n:]))


def _simulate(rc: RunConfig) -> simmod.Trajectory:
    """The configured closed loop with its observers, integrated from sim.ic
    for sim.t_end and halted where |x| reaches sim.guard (when positive)."""
    loop, control, energy = _closed_loop_and_observers(rc)
    state0 = _initial_state(rc, loop.n)
    guard = (lambda q, qd: abs(q[0]) >= rc.guard) if rc.guard > 0 else None
    return simmod.integrate(loop, state0, rc.dt, rc.t_end,
                            control=control, energy=energy, guard=guard)


def cmd_simulate(args) -> int:
    rc = RunConfig.load(args.config, args)
    if rc.system == "cartpole":
        _require_gain_window(rc)
    elif rc.system == "incline":
        # the h-curve's span covers the potential's, so the latter decides
        _require_gain_window(rc, _incline_potential_span(rc))
    traj = _simulate(rc)
    out_dir = Path(rc.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dest = out_dir / "trajectory.csv"
    rows = simmod.write_csv(traj, dest)
    drift = simmod.energy_drift(traj) if traj.energies is not None else None
    ok = not traj.events and (drift is None or drift <= rc.tol_drift)
    doc = {"command": "simulate", "pass": ok, "rows": rows, "drift": drift,
           "events": [[t, kind] for t, kind in traj.events], "csv": str(dest)}
    _emit(args, doc,
          f"wrote {rows} rows to {dest}\n"
          f"energy drift: {drift if drift is not None else 'n/a'}\n"
          f"events: {traj.events or 'none'}\n"
          f"overall: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _sweep_one(rc: RunConfig, k: float, sigma: float, rho: float) -> dict:
    gains = ctl.GainSelection(k=k, sigma=sigma, rho=rho, c=rc.gains.c, s0=rc.gains.s0)
    p = rc.params
    kmin = ctl.gain_bound(p, 0.0)
    row = {"k": k, "sigma": sigma, "rho": rho, "k_min": kmin,
           "gain_ok": bool(k > kmin)}
    if rc.system == "cartpole":
        sys_ = cartpole_system(p)
        shp = ctl.cartpole_shaping(p, gains)
    else:
        sys_ = incline_system(p)
        shp = ctl.incline_base_shaping(p, gains)
    xs = np.linspace(rc.grid_lo, rc.grid_hi, max(9, rc.grid_n // 4))
    min_eig = np.inf
    for x in xs:
        sm = ctl.shaped_multipliers(sys_, shp, np.array([x, 0.0]))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(sm.gtilde).min()))
    row["min_eig_gtilde"] = min_eig
    sweep_rc = RunConfig(**{**rc.__dict__, "gains": gains,
                            "t_end": min(rc.t_end, 2.0), "dt": max(rc.dt, 1e-3)})
    try:
        traj = _simulate(sweep_rc)
        row["drift"] = simmod.energy_drift(traj) if traj.energies is not None else float("nan")
        row["events"] = len(traj.events)
    except (ValueError, ZeroDivisionError, RuntimeError) as exc:
        row["drift"] = float("nan")
        row["events"] = -1
        row["error"] = str(exc)
    row["pass"] = bool(row["gain_ok"] and min_eig > 0
                       and row["events"] == 0 and row["drift"] <= rc.tol_drift)
    return row


def cmd_sweep(args) -> int:
    rc = RunConfig.load(args.config, args)
    if rc.system not in ("cartpole", "incline"):
        raise ConfigError("sweep supports the cartpole and incline systems")
    # bad values fail the whole sweep before any row runs; a k below the gain
    # bound is a valid request and stays an errored row
    for name in ("k", "sigma", "rho"):
        for value in getattr(rc, f"sweep_{name}"):
            _checked("sweep", replace, rc.gains, **{name: value})
    _initial_state(rc, 2)
    ks = rc.sweep_k or [rc.gains.k]
    sigmas = rc.sweep_sigma or [rc.gains.sigma]
    rhos = rc.sweep_rho or [rc.gains.rho]
    combos = [(k, s, r) for k in ks for s in sigmas for r in rhos]
    with ThreadPoolExecutor(max_workers=_sweep_threads(len(combos))) as ex:
        rows = list(ex.map(lambda c: _sweep_one(rc, *c), combos))
    out_dir = Path(rc.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dest = out_dir / "sweep.csv"
    cols = ["k", "sigma", "rho", "k_min", "gain_ok", "min_eig_gtilde", "drift",
            "events", "pass", "error"]
    with open(dest, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(cols)
        out.writerows([row.get(c, "") for c in cols] for row in rows)
    doc = {"command": "sweep", "rows": rows, "csv": str(dest)}
    _emit(args, doc, f"wrote {len(rows)} rows to {dest}")
    errored = [row for row in rows if "error" in row]
    for row in errored:
        print(f"sweep row k={row['k']} sigma={row['sigma']} rho={row['rho']}: "
              f"{row['error']}", file=_sys.stderr)
    return 1 if errored else 0


def _sweep_threads(n_combos: int) -> int:
    """Pool size: MATCHCTL_THREADS when set and not empty, else min(8, combos)."""
    raw = os.environ.get("MATCHCTL_THREADS", "").strip()
    if not raw:
        return min(8, n_combos)
    try:
        n = int(raw)
    except ValueError:
        n = 0                       # reported below like any other value under 1
    if n < 1:
        raise ConfigError(f"MATCHCTL_THREADS must be an integer >= 1, got {raw!r}")
    return n


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="matchctl",
        description="Matching-condition checks, feedback-shaping synthesis and "
                    "closed-loop simulation for underactuated mechanical systems.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in (("check-matching", cmd_check_matching),
                     ("check-helmholtz", cmd_check_helmholtz),
                     ("synthesize-tau", cmd_synthesize_tau),
                     ("simulate", cmd_simulate),
                     ("sweep", cmd_sweep)):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--json", action="store_true")
        sp.add_argument("--out", default=None)
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--grid", type=int, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    except Exception as exc:  # residual machinery failure: report, not traceback
        print(f"error: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
