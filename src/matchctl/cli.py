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
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import control as ctl
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
    system: str
    params: CartpoleParams | InclineParams | None
    tau_mode: str
    gains: ctl.GainSelection
    dt: float = 1e-4
    t_end: float = 10.0
    ic: list[float] = dc_field(default_factory=lambda: [0.0, 0.0, 0.0, 0.0])
    guard: float = math.pi / 2
    grid_n: int = 41
    grid_lo: float = -1.3
    grid_hi: float = 1.3
    tol_residual: float = 1e-8
    tol_matching: float = 1e-10
    tol_drift: float = 1e-6
    seed: int = 0
    n_states: int = 100
    v_max: float = 5.0
    out_dir: str = "."
    builtin_seed: int = 1
    builtin_shape: int = 1
    builtin_group: int = 2
    sweep_k: list[float] = dc_field(default_factory=list)
    sweep_sigma: list[float] = dc_field(default_factory=list)
    sweep_rho: list[float] = dc_field(default_factory=list)

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
                params = InclineParams(psi=_get(cfg, "params.psi", float), **base)
            else:
                params = CartpoleParams(**base)
        tau_mode = _get(cfg, "tau.mode", str, "new-closed-form")
        if tau_mode not in ("sm3", "new-closed-form", "new-ode"):
            raise ConfigError(f"unknown tau mode: {tau_mode}")
        sigma = _get(cfg, "gains.sigma", float, 1.0)
        if tau_mode == "sm3" and sigma == 0.0:
            raise ConfigError("sm3 tau requires nonzero sigma")
        try:
            gains = ctl.GainSelection(
                k=_get(cfg, "gains.k", float, 35.0),
                sigma=sigma,
                rho=_get(cfg, "gains.rho", float, 1.0),
                c=_get(cfg, "gains.c", float, 0.0),
                s0=_get(cfg, "gains.s0", float, 0.0),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
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
        if rc.tol_residual <= 0 or rc.tol_matching <= 0 or rc.tol_drift <= 0:
            raise ConfigError("tolerances must be positive")
        for key, value in (("grid.n", rc.grid_n), ("helmholtz.n_states", rc.n_states)):
            if value < 1:
                raise ConfigError(f"{key} must be at least 1, got {value}")
        for key, value in (("sim.dt", rc.dt), ("sim.t_end", rc.t_end)):
            if not value > 0:
                raise ConfigError(f"{key} must be positive, got {value!r}")
        if rc.tau_mode == "new-ode" and not rc.grid_lo < rc.grid_hi:
            raise ConfigError(f"new-ode needs grid.lo < grid.hi, got grid.lo = "
                              f"{rc.grid_lo!r}, grid.hi = {rc.grid_hi!r}")
        return rc


def _require_gain_window(rc: RunConfig) -> None:
    """The pole-free window of the shaped system around x = 0 exists only for
    k above the gain bound at the equilibrium."""
    kmin = ctl.gain_bound(rc.params, 0.0)
    if not rc.gains.k > kmin:
        raise ConfigError(f"gains.k = {rc.gains.k!r} must exceed the gain bound "
                          f"{kmin!r} at the equilibrium")


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
        _require_gain_window(rc)
        base = ShapingParams(tau=tau, sigma=sigma_mat, rho=rc.gains.rho)
        veps = ctl.incline_veps_field(rc.params, base, rc.gains)
        shp = ShapingParams(tau=tau, sigma=sigma_mat, rho=rc.gains.rho,
                            epsilon_potential=veps)
    else:
        shp = ShapingParams(tau=tau, sigma=sigma_mat)
    return sys_, shp


def _emit(args, doc: dict, text: str) -> None:
    if args.json:
        print(json.dumps(doc, indent=2, default=float))
    else:
        print(text)


def cmd_check_matching(args) -> int:
    rc = RunConfig.load(args.config, args)
    sys_, shp = _build_system_and_shaping(rc)
    xs = np.linspace(rc.grid_lo, rc.grid_hi, rc.grid_n)
    grid = [np.full(sys_.dims.n_shape, x) for x in xs]
    reports = [
        mt.check_on_grid(mt.matching_residuals, sys_, shp, grid, tol=rc.tol_matching),
        mt.check_on_grid(mt.simplified_matching_residuals, sys_, shp, grid,
                         tol=rc.tol_matching),
        mt.check_on_grid(mt.generalized_matching_residuals, sys_, shp, grid,
                         tol=rc.tol_matching),
        validate_system(sys_, n_samples=max(5, rc.grid_n // 4),
                        x_range=(rc.grid_lo, rc.grid_hi), seed=rc.seed),
    ]
    if rc.tau_mode in ("new-closed-form", "new-ode") and sys_.dims.n_shape == 1:
        tau_fields = [row[0] for row in shp.tau]
        worst = 0.0
        for x in xs:
            r = mt.new_tau_ode_residual(sys_, tau_fields, np.array([x]))
            worst = max(worst, float(np.abs(r).max()))
        ode_rep = ResidualReport("tau ODE residual (grid max)")
        tol = 1e-10 if rc.tau_mode == "new-closed-form" else 1e-6
        ode_rep.add(ResidualEntry.from_value("tau_ode", worst, tol))
        reports.append(ode_rep)

    # the applicable set decides the exit code
    if rc.tau_mode == "sm3" or rc.system == "builtin-test":
        names = {"SM1": 1, "SM2": 1, "SM3": 1, "SM4": 1, "SM5": 1,
                 "M1": 0, "M2": 0, "M3": 0}
        ok = all(e.passed for rep in reports[:2] for e in rep.entries
                 if e.name in names and not e.skipped)
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


def _random_states(rc: RunConfig, n_coords: int, n_shape: int) -> list[State]:
    rng = np.random.default_rng(rc.seed)
    states = []
    for _ in range(rc.n_states):
        x = rng.uniform(rc.grid_lo, rc.grid_hi, size=n_shape)
        th = rng.uniform(-2.0, 2.0, size=n_coords - n_shape)
        qd = rng.uniform(-rc.v_max, rc.v_max, size=n_coords)
        states.append(State(q=np.concatenate([x, th]), qdot=qd))
    return states


def cmd_check_helmholtz(args) -> int:
    rc = RunConfig.load(args.config, args)
    sys_, shp = _build_system_and_shaping(rc)
    field = controlled_implicit_sode(sys_, shp)
    F = hh.legendre_fn(sys_, shp)
    mult = hh.multiplier_from_shaping(sys_, shp)
    explicit = field.to_explicit()
    states = _random_states(rc, sys_.dims.total, sys_.dims.n_shape)
    implicit_reports, explicit_reports = [], []
    for st in states:
        implicit_reports.append(hh.implicit_helmholtz_residuals(
            field, F, st, sys_.dims, tol=rc.tol_residual))
        explicit_reports.append(hh.explicit_helmholtz_residuals(
            explicit, mult, st, tol=rc.tol_residual))
    reps = [
        ResidualReport.merge_max(f"implicit conditions ({len(states)} states)",
                                 implicit_reports),
        ResidualReport.merge_max(f"explicit multiplier conditions ({len(states)} states)",
                                 explicit_reports),
    ]
    ok = all(r.overall_pass for r in reps)
    doc = {"command": "check-helmholtz", "pass": ok,
           "reports": [r.to_dict() for r in reps]}
    _emit(args, doc, "\n\n".join(str(r) for r in reps)
          + f"\n\noverall: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_synthesize_tau(args) -> int:
    rc = RunConfig.load(args.config, args)
    sys_, shp = _build_system_and_shaping(rc)
    xs = np.linspace(rc.grid_lo, rc.grid_hi, rc.grid_n)
    tau_rows = []
    for x in xs:
        xv = np.full(sys_.dims.n_shape, x)
        tau_rows.append(np.concatenate([shp.tau_value(xv).ravel(),
                                        shp.tau_d1(xv).ravel()]))
    out_dir = Path(rc.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dest = out_dir / "tau_samples.csv"
    ng, ns = shp.n_group, shp.n_shape
    header = ["x"] + [f"tau{a + 1}_{al + 1}" for a in range(ng) for al in range(ns)] \
        + [f"dtau{a + 1}_{al + 1}_{k + 1}" for a in range(ng) for al in range(ns)
           for k in range(ns)]
    with open(dest, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for x, row in zip(xs, tau_rows):
            fh.write(",".join(f"{v:.17g}" for v in np.concatenate([[x], row])) + "\n")

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


def _closed_loop_and_observers(rc: RunConfig):
    if rc.system == "cartpole":
        return ctl.cartpole_observed_loop(rc.params, rc.gains,
                                          1.02 * max(rc.guard, max(abs(rc.ic[0]), 0.5)))
    if rc.system == "incline":
        return ctl.incline_observed_loop(rc.params, rc.gains,
                                         (rc.grid_lo - 0.1, rc.grid_hi + 0.1))
    # builtin-test: generic machinery, no tailored observers
    sys_, shp = _build_system_and_shaping(rc)
    loop = controlled_implicit_sode(sys_, shp).to_explicit()
    return loop, None, None


def cmd_simulate(args) -> int:
    rc = RunConfig.load(args.config, args)
    if rc.system in ("cartpole", "incline"):
        _require_gain_window(rc)
    loop, control, energy = _closed_loop_and_observers(rc)
    n = loop.n
    if len(rc.ic) != 2 * n:
        raise ConfigError(f"sim.ic needs {2 * n} comma-separated values")
    state0 = State(q=np.array(rc.ic[:n]), qdot=np.array(rc.ic[n:]))
    guard = (lambda q, qd: abs(q[0]) >= rc.guard) if rc.guard > 0 else None
    traj = simmod.integrate(loop, state0, rc.dt, rc.t_end,
                            control=control, energy=energy, guard=guard)
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
        loop, control, energy = _closed_loop_and_observers(sweep_rc)
        state0 = State(q=np.array(sweep_rc.ic[:2]), qdot=np.array(sweep_rc.ic[2:]))
        guard = (lambda q, qd: abs(q[0]) >= rc.guard) if rc.guard > 0 else None
        traj = simmod.integrate(loop, state0, sweep_rc.dt, sweep_rc.t_end,
                                control=control, energy=energy, guard=guard)
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
