"""Command-line front door.

Commands: check-matching, check-helmholtz, synthesize-tau, simulate, sweep,
which share one set of flags.
Configuration is a flat key = value file with # comments and dotted section
prefixes (grammar documented in the README).  Exit codes: 0 pass/success,
1 residual or simulation failure, 2 usage/configuration error, 141 (128 +
SIGPIPE) stdout closed by its reader, with no error line.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys as _sys
# kept only for perfbench's TracedPool, which subclasses it; ROADMAP item 1 deletes it
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import control as ctl
from . import fields as fl
from . import helmholtz as hh
from . import matching as mt
from . import sim as simmod
from .lagrangian import (ShapingParams, controlled_implicit_sode, kinetic_matrix,
                         scalar_sigma_matrix)
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


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


_AT_LEAST_1 = (lambda v: v >= 1, "{key} must be at least 1, got {value}")
_POSITIVE = (lambda v: v > 0, "{key} must be positive, got {value!r}")
_POSITIVE_FINITE = (lambda v: 0 < v < math.inf, "{key} must be positive and finite, got {value!r}")
_NON_NEGATIVE = (lambda v: v >= 0, "{key} must be non-negative, got {value}")

# Every config key: key -> (cast, default, check), as the README's key table
# lists them.  A default is config text, cast like a value from the file; a key
# without one is required where it is read.  A check is (predicate, message);
# the params and gains keys are checked by the constructors they feed.
_KEYS = {
    "system": (str, None, (lambda v: v in ("cartpole", "incline", "builtin-test"),
                           "unknown system: {value}")),
    "params.m": (float, "0.14", None),
    "params.M": (float, "0.44", None),
    "params.l": (float, "0.215", None),
    "params.grav": (float, "9.81", None),
    "params.psi": (float, None, None),
    "tau.mode": (str, "new-closed-form", (lambda v: v in ("sm3", "new-closed-form", "new-ode"),
                                          "unknown tau mode: {value}")),
    "gains.k": (float, "35", None),
    "gains.sigma": (float, "1", None),
    "gains.rho": (float, "1", None),
    "gains.c": (float, "0", None),
    "gains.s0": (float, "0", None),
    "sim.dt": (float, "1e-4", _POSITIVE_FINITE),
    "sim.t_end": (float, "10", _POSITIVE_FINITE),
    "sim.ic": (_floats, "0, 0, 0, 0", (lambda v: all(map(math.isfinite, v)),
                                       "{key} must be finite, got {value!r}")),
    "sim.guard": (float, "1.5707963267948966", (lambda v: not math.isnan(v),
                                                "{key} must not be NaN")),
    "grid.n": (int, "41", _AT_LEAST_1),
    "grid.lo": (float, "-1.3", None),
    "grid.hi": (float, "1.3", None),
    "tol.residual": (float, "1e-8", _POSITIVE),
    "tol.matching": (float, "1e-10", _POSITIVE),
    "tol.drift": (float, "1e-6", _POSITIVE),
    "seed": (int, "0", _NON_NEGATIVE),
    "helmholtz.n_states": (int, "100", _AT_LEAST_1),
    "helmholtz.v_max": (float, "5", (lambda v: 0 <= v < math.inf,
                                     "{key} must be finite and non-negative, got {value!r}")),
    "out.dir": (str, ".", None),
    "builtin.seed": (int, "1", _NON_NEGATIVE),
    "builtin.n_shape": (int, "1", _AT_LEAST_1),
    "builtin.n_group": (int, "2", _AT_LEAST_1),
    "sweep.k": (_floats, "", None),
    "sweep.sigma": (_floats, "", None),
    "sweep.rho": (_floats, "", None),
}


class _Resolved(dict):
    def __missing__(self, key):         # neither a value nor a default
        raise ConfigError(f"missing config key: {key}")


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
        for key in cfg:
            if key not in _KEYS:
                from difflib import get_close_matches      # only on this error path
                near = get_close_matches(key, _KEYS, n=1)
                hint = f" (did you mean {near[0]}?)" if near else ""
                raise ConfigError(f"unknown config key: {key}{hint}")
        for key, value in (("tol.residual", overrides.tol), ("grid.n", overrides.grid),
                           ("seed", overrides.seed), ("out.dir", overrides.out)):
            if value is not None:
                cfg[key] = str(value)           # str of a float or an int casts back exactly
        v = _Resolved()
        for key, (cast, default, check) in _KEYS.items():
            text = cfg.get(key, default)
            if text is None:
                continue
            try:
                v[key] = cast(text)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {text!r}") from exc
            if check is not None and not check[0](v[key]):
                raise ConfigError(check[1].format(key=key, value=v[key]))
        system, params = v["system"], None
        if system in ("cartpole", "incline"):
            psi = {"psi": v["params.psi"]} if system == "incline" else {}
            params = _checked("params", InclineParams if psi else CartpoleParams, **psi,
                              **{name: v[f"params.{name}"] for name in ("m", "M", "l", "grav")})
        if v["tau.mode"] == "sm3" and v["gains.sigma"] == 0.0:
            raise ConfigError("sm3 tau requires nonzero sigma")
        gains = _checked("gains", ctl.GainSelection,
                         **{name: v[f"gains.{name}"] for name in ("k", "sigma", "rho", "c", "s0")})
        lo, hi = v["grid.lo"], v["grid.hi"]
        if not (-math.inf < lo <= hi < math.inf and (lo < hi or v["tau.mode"] != "new-ode")):
            raise ConfigError(f"grid.lo and grid.hi must be finite with grid.lo <= grid.hi "
                              f"(< for new-ode), got grid.lo = {lo!r}, grid.hi = {hi!r}")
        if not math.isfinite(max(lo * lo, hi * hi)):    # x ** 2 is read on the grid
            raise ConfigError(f"grid.lo and grid.hi must have finite squares, got "
                              f"grid.lo = {lo!r}, grid.hi = {hi!r}")
        return RunConfig(
            system=system, params=params, tau_mode=v["tau.mode"], gains=gains,
            dt=v["sim.dt"], t_end=v["sim.t_end"], ic=v["sim.ic"], guard=v["sim.guard"],
            grid_n=v["grid.n"], grid_lo=lo, grid_hi=hi, tol_residual=v["tol.residual"],
            tol_matching=v["tol.matching"], tol_drift=v["tol.drift"], seed=v["seed"],
            n_states=v["helmholtz.n_states"], v_max=v["helmholtz.v_max"],
            out_dir=v["out.dir"], builtin_seed=v["builtin.seed"],
            builtin_shape=v["builtin.n_shape"], builtin_group=v["builtin.n_group"],
            sweep_k=v["sweep.k"], sweep_sigma=v["sweep.sigma"], sweep_rho=v["sweep.rho"])


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


def _json_values(obj):
    """``obj`` with every value of its dicts and lists that is not a string,
    an int, a bool or None as a float, and a float that is not finite as None."""
    if isinstance(obj, dict):
        return {key: _json_values(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_values(value) for value in obj]
    if obj is None or isinstance(obj, (str, int)):
        return obj
    value = float(obj)
    return value if math.isfinite(value) else None


def _emit(args, doc: dict, text: str) -> None:
    """Print ``doc`` under --json as strict JSON (RFC 8259), where a number
    that is not finite is null, and ``text`` otherwise."""
    if args.json:
        try:
            out = json.dumps(doc, indent=2, default=float, allow_nan=False)
        except ValueError:      # walked only then: the walk costs a third of the dumps
            out = json.dumps(_json_values(doc), indent=2, allow_nan=False)
        print(out)
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
        # the worst point; a NaN anywhere, overflow at a huge gain included, reads NaN and fails
        with np.errstate(over="ignore", invalid="ignore"):
            res = mt.new_tau_ode_residual(sys_, [row[0] for row in shp.tau], grid)
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
    explicit, multiplier = field.to_explicit(), hh.multiplier_from_shaping(sys_, shp)
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN, as on a far grid, fails its entry
        reps = [hh.implicit_helmholtz_residuals(field, hh.legendre_fn(sys_, shp), states,
                                                sys_.dims, tol=rc.tol_residual),
                hh.explicit_helmholtz_residuals(explicit, multiplier, states, tol=rc.tol_residual)]
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
        simmod.write_rows(fh, header, rows.T)

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


def _closed_loop_and_observers(rc: RunConfig, kinetic: tuple | None = None):
    """The configured loop and its observers (None for builtin-test);
    ``kinetic`` is the loop's (system, shaping) pair if the caller built it."""
    if rc.system == "cartpole":
        return ctl.cartpole_observed_loop(rc.params, rc.gains,
                                          1.02 * max(rc.guard, max(abs(rc.ic[0]), 0.5)), kinetic)
    if rc.system == "incline":
        return ctl.incline_observed_loop(rc.params, rc.gains, _incline_potential_span(rc),
                                         kinetic)
    # builtin-test: generic machinery, no tailored observers
    sys_, shp = _build_system_and_shaping(rc)
    loop = controlled_implicit_sode(sys_, shp).to_explicit()
    return loop, None, None


def _initial_state(rc: RunConfig, n: int) -> State:
    if len(rc.ic) != 2 * n:
        raise ConfigError(f"sim.ic needs {2 * n} comma-separated values")
    return State(q=np.array(rc.ic[:n]), qdot=np.array(rc.ic[n:]))


def _simulate(rc: RunConfig, marches: dict, kinetic: tuple | None = None,
              csv: Path | None = None) -> simmod.Trajectory:
    """The configured closed loop with its observers, integrated from sim.ic
    for sim.t_end and halted where |x| reaches sim.guard (when positive);
    ``kinetic`` as in `_closed_loop_and_observers`, ``csv`` as in
    `simmod.integrate`.  ``marches`` holds the last trajectory integrated,
    under its `ctl.closed_loop_key`: a loop found there (a sweep row that
    differs from the last in gains the loop does not read) is only observed,
    and one integrated here replaces it (``{}`` integrates afresh)."""
    key = ctl.closed_loop_key(rc.params, rc.gains)
    march = marches.get(key)
    marches.clear()             # before the curves of this loop are built
    loop, control, energy = _closed_loop_and_observers(rc, kinetic)
    if march is None:
        guard = (lambda q, qd: abs(q[0]) >= rc.guard) if rc.guard > 0 else None
        traj = simmod.integrate(loop, _initial_state(rc, loop.n), rc.dt, rc.t_end,
                                control=control, energy=energy, guard=guard, csv=csv)
    else:
        traj = simmod.observe(march, control, energy)
    marches[key] = traj
    return traj


def cmd_simulate(args) -> int:
    rc = RunConfig.load(args.config, args)
    if not math.isfinite(rc.t_end / rc.dt):
        raise ConfigError(f"sim.t_end / sim.dt must be a finite step count, got "
                          f"{rc.t_end!r} / {rc.dt!r} = {rc.t_end / rc.dt!r}")
    if rc.system == "cartpole":
        _require_gain_window(rc)
    elif rc.system == "incline":
        # the h-curve's span covers the potential's, so the latter decides
        _require_gain_window(rc, _incline_potential_span(rc))
    out_dir = Path(rc.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dest = out_dir / "trajectory.csv"
    traj = _simulate(rc, {}, csv=dest)      # writes the CSV while the loop is marched
    rows = len(traj.times)
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


def _sweep_one(rc: RunConfig, k: float, sigma: float, rho: float, marches: dict) -> dict:
    """One sweep row; ``marches`` is the sweep's memo of `_simulate`."""
    gains = ctl.GainSelection(k=k, sigma=sigma, rho=rho, c=rc.gains.c, s0=rc.gains.s0)
    p = rc.params
    kmin = ctl.gain_bound(p, 0.0)
    row = {"k": k, "sigma": sigma, "rho": rho, "k_min": kmin,
           "gain_ok": bool(k > kmin)}
    # one system and shaping for this check and the row's observed loop; the
    # cart-pole shaping reads no rho
    sys_ = (cartpole_system if rc.system == "cartpole" else incline_system)(p)
    shp = ctl.new_tau_shaping(sys_, gains, rho if rc.system == "incline" else 1.0)
    xs = np.linspace(rc.grid_lo, rc.grid_hi, max(9, rc.grid_n // 4))
    # a NaN anywhere, overflow at a huge gain included, reads NaN and fails the row
    with np.errstate(over="ignore", invalid="ignore"):
        gtilde = np.array([[np.broadcast_to(v, xs.shape) for v in r]
                           for r in kinetic_matrix(sys_, shp, [xs])])
        min_eig = float(np.linalg.eigvalsh(np.moveaxis(gtilde, -1, 0)).min())
    row["min_eig_gtilde"] = min_eig
    sweep_rc = replace(rc, gains=gains, t_end=min(rc.t_end, 2.0), dt=max(rc.dt, 1e-3))
    try:
        traj = _simulate(sweep_rc, marches, (sys_, shp))
        row["drift"] = simmod.energy_drift(traj) if traj.energies is not None else float("nan")
        row["events"] = len(traj.events)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
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
    # rows run in order on this thread; k varies slowest, so rows that share a
    # closed loop run one after another and share its march, which this sweep
    # alone keeps.
    marches: dict = {}
    rows = [_sweep_one(rc, *c, marches) for c in combos]
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


_COMMANDS = {"check-matching": cmd_check_matching, "check-helmholtz": cmd_check_helmholtz,
             "synthesize-tau": cmd_synthesize_tau, "simulate": cmd_simulate, "sweep": cmd_sweep}


def _parser() -> argparse.ArgumentParser:
    """One parser: the command, then the flags every command shares."""
    ap = argparse.ArgumentParser(
        prog="matchctl",
        description="Matching-condition checks, feedback-shaping synthesis and "
                    "closed-loop simulation for underactuated mechanical systems.")
    ap.add_argument("command", choices=_COMMANDS)
    ap.add_argument("--config", required=True)
    ap.add_argument("--json", action="store_true")
    ap.add_argument("--out", default=None)
    ap.add_argument("--tol", type=float, default=None)
    ap.add_argument("--grid", type=int, default=None)
    ap.add_argument("--seed", type=int, default=None)
    return ap


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        code = _COMMANDS[args.command](args)
        _sys.stdout.flush()     # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:     # the reader left (`| head`); devnull quiets the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), _sys.stdout.fileno())
        return 141
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    except Exception as exc:  # residual machinery failure: report, not traceback
        print(f"error: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
