import json
import os
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

import matchctl.control as ctl
from matchctl.cli import ConfigError, RunConfig, main, parse_config
from matchctl.lagrangian import feedback_control, kinetic_matrix
from matchctl.model import InclineParams, State, incline_system


def write_cfg(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


CARTPOLE_FAST = """
# cart-pole, short run for tests
system = cartpole
tau.mode = new-closed-form
gains.k = 35.0
gains.sigma = 1.0
sim.dt = 1e-3
sim.t_end = 1.0
sim.ic = 1.3707963267948966, 0.0, 0.1, -3.0
grid.n = 11
helmholtz.n_states = 5
out.dir = {out}
"""

INCLINE_FAST = """
system = incline
params.psi = 0.3
tau.mode = new-closed-form
gains.k = 35.0
gains.sigma = 1.0
gains.rho = 2.0
gains.c = 6.0
sim.dt = 1e-3
sim.t_end = 1.0
sim.ic = 0.2, 0.1, 0.0, 0.0
grid.n = 11
grid.lo = -1.0
grid.hi = 1.0
helmholtz.n_states = 4
out.dir = {out}
"""


def test_parse_config_grammar(tmp_path):
    path = write_cfg(tmp_path, "a.cfg", """
# comment line
system = cartpole   # trailing comment
sim.dt = 1e-3

gains.k = 35
""")
    cfg = parse_config(path)
    assert cfg == {"system": "cartpole", "sim.dt": "1e-3", "gains.k": "35"}
    bad = write_cfg(tmp_path, "b.cfg", "just a line without equals\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config(bad)
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "missing.cfg")


def test_runconfig_validation(tmp_path):
    path = write_cfg(tmp_path, "c.cfg", "system = martian\n")
    ns = type("NS", (), {"tol": None, "grid": None, "seed": None, "out": None})
    with pytest.raises(ConfigError, match="unknown system"):
        RunConfig.load(path, ns)
    path2 = write_cfg(tmp_path, "d.cfg", "system = cartpole\ntau.mode = sm3\ngains.sigma = 0\n")
    with pytest.raises(ConfigError, match="sigma"):
        RunConfig.load(path2, ns)


def test_simulate_cartpole(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cp.cfg", CARTPOLE_FAST.format(out=tmp_path / "out"))
    code = main(["simulate", "--config", cfg])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    csv = tmp_path / "out" / "trajectory.csv"
    header = csv.read_text().splitlines()[0]
    assert header == "t,x1,theta1,xdot1,thetadot1,u1,E"


def test_simulate_json(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cp.cfg", CARTPOLE_FAST.format(out=tmp_path / "out"))
    code = main(["simulate", "--config", cfg, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["command"] == "simulate"
    assert doc["pass"] is True
    assert doc["drift"] <= 1e-6


def test_simulate_incline_shares_one_h_curve(tmp_path, capsys, monkeypatch):
    # the closed loop, the shaped potential and both observers read one
    # h-curve, and the observer columns agree with the generic feedback and
    # kinetic matrix
    built, made = [], {}

    class CountedCurve(ctl._HCurve):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    def recorded(name):
        fn = getattr(ctl, name)

        def wrapper(*args, **kwargs):
            made[name] = fn(*args, **kwargs)
            return made[name]
        return wrapper

    monkeypatch.setattr(ctl, "_HCurve", CountedCurve)
    for name in ("incline_closed_loop", "incline_shaped_potential"):
        monkeypatch.setattr(ctl, name, recorded(name))
    cfg = write_cfg(tmp_path, "inc.cfg", INCLINE_FAST.format(out=tmp_path / "out"))
    assert main(["simulate", "--config", cfg]) == 0
    capsys.readouterr()
    assert len(built) == 1
    monkeypatch.undo()

    rows = np.loadtxt(tmp_path / "out" / "trajectory.csv", delimiter=",", skiprows=1)
    p = InclineParams(psi=0.3)
    gains = ctl.GainSelection(k=35.0, sigma=1.0, rho=2.0, c=6.0)
    sys_, shp = incline_system(p), ctl.incline_shaping(p, gains)
    loop, pot = made["incline_closed_loop"], made["incline_shaped_potential"]
    rng = np.random.default_rng(3)
    for t, x, s, xd, sd, u1, E in rows[rng.choice(len(rows), 50, replace=False)]:
        state = State(q=np.array([x, s]), qdot=np.array([xd, sd]))
        u = feedback_control(sys_, shp, state, loop.gamma_floats(state.q, state.qdot))[0]
        assert abs(u1 - u) <= 1e-9 * max(1.0, abs(u))
        M = np.array(kinetic_matrix(sys_, shp, [x]), dtype=float)
        kinetic = 0.5 * state.qdot @ M @ state.qdot
        assert abs(E - pot.value(state.q) - kinetic) <= 1e-12 * max(1.0, kinetic)


def test_check_matching_exit_codes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cp.cfg", CARTPOLE_FAST.format(out=tmp_path / "out"))
    assert main(["check-matching", "--config", cfg]) == 0
    capsys.readouterr()
    # classical tau mode passes the simplified set on the cart-pole
    cfg_sm3 = write_cfg(tmp_path, "sm3.cfg",
                        CARTPOLE_FAST.format(out=tmp_path / "out")
                        .replace("new-closed-form", "sm3"))
    assert main(["check-matching", "--config", cfg_sm3]) == 0


def test_check_helmholtz_quick(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cp.cfg", CARTPOLE_FAST.format(out=tmp_path / "out"))
    code = main(["check-helmholtz", "--config", cfg, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["pass"] is True
    names = {e["name"] for r in doc["reports"] for e in r["entries"]}
    assert {"BB_ab", "AB_alpha_beta", "AA_alpha_b"} <= names


def test_check_helmholtz_incline(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "inc.cfg", INCLINE_FAST.format(out=tmp_path / "out"))
    assert main(["check-helmholtz", "--config", cfg]) == 0


def test_synthesize_tau(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cp.cfg", CARTPOLE_FAST.format(out=tmp_path / "out"))
    code = main(["synthesize-tau", "--config", cfg, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["gains"]["k_min_at_0"] == pytest.approx(3.0566, abs=1e-3)
    samples = (tmp_path / "out" / "tau_samples.csv").read_text().splitlines()
    assert samples[0].startswith("x,tau1_1,dtau1_1_1")
    assert len(samples) == 12


def test_synthesize_tau_below_bound(tmp_path, capsys):
    text = CARTPOLE_FAST.format(out=tmp_path / "out").replace("gains.k = 35.0",
                                                              "gains.k = 1.0")
    cfg = write_cfg(tmp_path, "cp.cfg", text)
    assert main(["synthesize-tau", "--config", cfg]) == 1


def test_sweep(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MATCHCTL_THREADS", "2")
    text = CARTPOLE_FAST.format(out=tmp_path / "out") + "sweep.k = 5, 35\nsweep.sigma = 1.0\n"
    cfg = write_cfg(tmp_path, "cp.cfg", text)
    assert main(["sweep", "--config", cfg]) == 0
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert rows[0].startswith("k,sigma,rho,k_min")
    assert len(rows) == 3


def test_sweep_incline_gain_near_pole_of_A(tmp_path, capsys, monkeypatch):
    # At this gain an unclipped h-curve span puts a quadrature node exactly on
    # the pole of A(x); the observers must build the curve on the pole-free
    # window instead.
    monkeypatch.setenv("MATCHCTL_THREADS", "1")
    text = INCLINE_FAST.format(out=tmp_path / "out") + "sweep.k = 4.298955178366427\n"
    cfg = write_cfg(tmp_path, "inc.cfg", text)
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        code = main(["sweep", "--config", cfg, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    (row,) = doc["rows"]
    assert "error" not in row
    assert row["events"] == 0


def test_sweep_reports_errored_rows(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MATCHCTL_THREADS", "1")
    # k = 2 is below the gain bound, so that row cannot build its observers
    text = CARTPOLE_FAST.format(out=tmp_path / "out") + "sweep.k = 2.0, 35\n"
    cfg = write_cfg(tmp_path, "cp.cfg", text)
    assert main(["sweep", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["sweep row k=2.0 sigma=1.0 rho=1.0: "
                   "k fails the bound even at the equilibrium"]
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert rows[0].endswith(",pass,error")
    assert rows[1].endswith(",False,k fails the bound even at the equilibrium")
    assert rows[2].endswith(",True,")


@pytest.mark.parametrize("value", ["", "  "])
def test_sweep_threads_empty_means_unset(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("MATCHCTL_THREADS", value)
    text = CARTPOLE_FAST.format(out=tmp_path / "out") + "sweep.k = 35\n"
    cfg = write_cfg(tmp_path, "cp.cfg", text)
    assert main(["sweep", "--config", cfg]) == 0


@pytest.mark.parametrize("value", ["two", "1.5", "0", "-3"])
def test_sweep_threads_invalid_is_config_error(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("MATCHCTL_THREADS", value)
    text = CARTPOLE_FAST.format(out=tmp_path / "out") + "sweep.k = 35\n"
    cfg = write_cfg(tmp_path, "cp.cfg", text)
    assert main(["sweep", "--config", cfg]) == 2
    assert "MATCHCTL_THREADS" in capsys.readouterr().err


def test_bad_usage_exit_codes(tmp_path, capsys):
    assert main(["no-such-command"]) == 2
    assert main(["simulate"]) == 2        # missing --config
    cfg = write_cfg(tmp_path, "bad.cfg", "system = cartpole\nsim.dt = soon\n")
    assert main(["simulate", "--config", cfg]) == 2


def test_overrides(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cp.cfg", CARTPOLE_FAST.format(out=tmp_path / "defaultout"))
    out = tmp_path / "other"
    code = main(["synthesize-tau", "--config", cfg, "--out", str(out), "--grid", "5"])
    assert code == 0
    lines = (out / "tau_samples.csv").read_text().splitlines()
    assert len(lines) == 6


def test_builtin_test_system(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "bt.cfg", """
system = builtin-test
builtin.seed = 1
builtin.n_shape = 1
builtin.n_group = 2
grid.n = 7
grid.lo = -0.8
grid.hi = 0.8
helmholtz.n_states = 3
""")
    assert main(["check-matching", "--config", cfg]) == 0
    capsys.readouterr()
    assert main(["check-helmholtz", "--config", cfg]) == 0


@pytest.mark.parametrize("command, extra, argv, key", [
    ("check-matching", "grid.n = 0\n", [], "grid.n"),
    ("check-matching", "", ["--grid", "0"], "grid.n"),
    ("check-matching", "tau.mode = new-ode\ngrid.lo = 0.5\ngrid.hi = 0.5\n", [], "grid.lo"),
    ("simulate", "sim.dt = 0\n", [], "sim.dt"),
    ("simulate", "sim.t_end = -1\n", [], "sim.t_end"),
    ("check-helmholtz", "helmholtz.n_states = 0\n", [], "helmholtz.n_states"),
], ids=["grid-n", "grid-override", "empty-ode-grid", "dt", "t-end", "n-states"])
def test_bad_config_values_are_config_errors(tmp_path, capsys, command, extra, argv, key):
    # later keys win, so `extra` overrides the fast config
    text = CARTPOLE_FAST.format(out=tmp_path / "out") + extra
    cfg = write_cfg(tmp_path, "cp.cfg", text)
    assert main([command, "--config", cfg] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err


@pytest.mark.parametrize("command, base", [
    ("simulate", CARTPOLE_FAST),
    ("simulate", INCLINE_FAST),
    ("check-matching", INCLINE_FAST),
    ("check-helmholtz", INCLINE_FAST),
    ("synthesize-tau", INCLINE_FAST),
], ids=["cartpole-simulate", "incline-simulate", "incline-check-matching",
        "incline-check-helmholtz", "incline-synthesize-tau"])
def test_gain_at_or_below_bound_is_config_error(tmp_path, capsys, command, base):
    kmin = ctl.gain_bound(InclineParams(psi=0.3), 0.0)
    for k in (1.0, kmin):
        text = base.format(out=tmp_path / "out") + f"gains.k = {k!r}\n"
        cfg = write_cfg(tmp_path, "low.cfg", text)
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "gains.k" in err and repr(kmin) in err


def test_unexpected_error_names_its_class(tmp_path, capsys, monkeypatch):
    import matchctl.cli as cli

    def broken(rc):
        raise IndexError("list index out of range")

    monkeypatch.setattr(cli, "_build_system_and_shaping", broken)
    cfg = write_cfg(tmp_path, "cp.cfg", CARTPOLE_FAST.format(out=tmp_path / "out"))
    assert main(["check-matching", "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: IndexError: list index out of range\n"
