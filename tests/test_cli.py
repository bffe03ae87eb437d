import ast
import json
import os
import re
import subprocess
import sys
import threading
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

import golden_record as golden
from conftest import FORKS
import matchctl.cli as cli
import matchctl.control as ctl
from matchctl.cli import ConfigError, RunConfig, main, parse_config
from matchctl.lagrangian import feedback_control, kinetic_matrix
from matchctl.model import (CartpoleParams, InclineParams, State, cartpole_system,
                            incline_system)


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


def test_readme_key_table_is_the_config_table():
    # the README's config reference lists exactly the keys and defaults of
    # the table RunConfig.load reads
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config grammar", 1)[1].split("\n### ", 1)[0]
    cells = {"empty": "", "none (required)": None, "none (required for the incline)": None}
    rows = [(key, default.strip("`") if default.startswith("`") else cells[default])
            for key, default in re.findall(r"^\| `([\w.]+)` \| ([^|]+?) \|", section, re.M)]
    assert rows == [(key, default) for key, (_, default, _) in cli._KEYS.items()]


def test_no_module_reads_the_environment():
    # every setting is a config key in cli._KEYS, so none comes from the environment
    src = Path(cli.__file__).resolve().parent
    readers = [f"{path.name}:{ln}" for path in sorted(src.glob("*.py"))
               for ln, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
               if re.search(r"\benviron\b|\bgetenv\b", line)]
    assert readers == []


# The functions, classes and methods of src that nothing in src reads, each
# with the test that reads it and why it stays: the paper-facing API
PAPER_FACING = {
    "control.cartpole_shaping": (
        "test_acceptance.py::test_criterion_2_helmholtz_verification",
        "the cart-pole's new-tau shaping that the acceptance criteria verify"),
    "control.cartpole_shaped_potential_gradient": (
        "test_control.py::test_reconstruction_matches_display",
        "the displayed restoring slope that the reconstruction must match"),
    "control.incline_Veps": (
        "test_acceptance.py::test_criterion_7_incline_suite",
        "the incline's extra potential by adaptive quadrature, the oracle of its cached curve"),
    "control.incline_hessian_check": (
        "test_acceptance.py::test_criterion_7_incline_suite",
        "the potential's Hessian at the equilibrium and the threshold on c"),
    "control.incline_shaping": (
        "test_acceptance.py::test_criterion_7_incline_suite",
        "the incline's shaping with rho and the constructed extra potential"),
    "control.position_feedback_control": (
        "test_acceptance.py::test_criterion_5_velocity_independence",
        "the feedback of the shaping ODE's tau, which reads no velocity"),
    "control.reconstruct_shaped_potential_gradient": (
        "test_control.py::test_reconstruction_equilibrium",
        "the potential gradient that completes the shaped kinetic energy into the closed loop"),
    "control.shaped_multipliers": (
        "test_acceptance.py::test_criterion_7_incline_suite",
        "the shaped kinetic matrix with its determinants and definiteness"),
    "fields.coordinate": (
        "test_fields.py::test_constant_coordinate_linear",
        "the coordinate field of the field algebra"),
    "fields.sin_of": (
        "test_acceptance.py::test_criterion_4_matching_implication_suite",
        "the field algebra's sine, which builds arbitrary metric fields"),
    "fields.sqrt_of": (
        "test_fields.py::test_algebra_derivatives_match_fd",
        "the field algebra's square root, in the sample field of the derivative checks"),
    "helmholtz.exactness_residuals": (
        "test_acceptance.py::test_criterion_9_numerics_hygiene",
        "the classical exactness conditions on an implicit covector Phi"),
    "helmholtz.sode_tensors": (
        "test_acceptance.py::test_criterion_8_douglas_spot_check",
        "nabla and the Jacobi endomorphism of a SODE, the Helmholtz conditions' tensors"),
    "lagrangian.ExplicitSode.gamma_jets": (
        "test_field_oracle.py::test_closed_loop_gamma_matches_sympy",
        "the explicit field's exact jets, checked against sympy"),
    "lagrangian.controlled_lagrangian_value": (
        "test_lagrangian.py::test_term_by_term_oracle",
        "the controlled Lagrangian's value, checked against its coordinate display"),
    "lagrangian.el_residual": (
        "test_lagrangian.py::test_el_residual_onshell",
        "the Euler-Lagrange residual of the uncontrolled system at given accelerations"),
    "lagrangian.feedback_control": (
        "test_acceptance.py::test_criterion_5_velocity_independence",
        "the general matching feedback, which the position feedback must equal"),
    "lagrangian.fw_identity_residuals": (
        "test_lagrangian.py::test_fw_identities_random",
        "the two Legendre/block-inverse contraction identities of special matching"),
    "lagrangian.lagrangian_value": (
        "test_lagrangian.py::test_term_by_term_oracle",
        "the mechanical Lagrangian's value"),
    "lagrangian.legendre_transform": (
        "test_lagrangian.py::test_legendre_is_velocity_gradient",
        "the fiber derivative of the controlled Lagrangian"),
    "lagrangian.uncontrolled_sode": (
        "test_acceptance.py::test_criterion_9_numerics_hygiene",
        "the uncontrolled Euler-Lagrange equations as an implicit SODE"),
    "matching.default_grid": (
        "test_matching.py::test_sm_structure_implies_full_matching",
        "the shape grid on which the matching implications are checked"),
    "report.ResidualReport.max_value": (
        "test_acceptance.py::test_criterion_2_helmholtz_verification",
        "the worst residual of a report, the acceptance suite's reading"),
    "report.ResidualReport.merge_max": (
        "test_report.py::test_merge_max_takes_the_worst_residual_and_the_smallest_floored_value",
        "the merge of one-point reports that a batch report must equal"),
    "sim.write_csv": (
        "test_sim.py::test_integrate_writes_the_csv_of_its_trajectory",
        "the one-process CSV that the streamed CSV must equal"),
}
# read by perfbench alone, each with the perfbench file that reads it
HELD_FOR_PERFBENCH = {
    "lagrangian.ExplicitSode.gamma2": (
        "probes.py",
        "the control.gamma2_us probe calls it; ROADMAP item 7 deletes both"),
}


def _reads(tree: ast.AST) -> set:
    """The names that a tree reads: loaded names and attributes.  An import
    is not a read, so a name that only __init__.py re-exports is unread."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def _definitions(node: ast.AST, scope: str):
    """(qualified name, name) of every function, class and method under node,
    which are all statements in statement bodies."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{scope}.{child.name}", child.name
            yield from _definitions(child, f"{scope}.{child.name}")
        elif isinstance(child, (ast.stmt, ast.excepthandler, ast.match_case)):
            yield from _definitions(child, scope)


def _function_reads(path: Path) -> dict:
    """What each module-level function of a file reads."""
    return {f.name: _reads(f) for f in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(f, ast.FunctionDef)}


def _test_reads(funcs: dict, test: str) -> set:
    """What a test function reads, itself or through the functions of its
    module, given as `_function_reads` gives them."""
    assert test.startswith("test_") and test in funcs, test
    seen, todo, out = set(), [test], set()
    while todo:
        name = todo.pop()
        if name in funcs and name not in seen:
            seen.add(name)
            out |= funcs[name]
            todo.extend(funcs[name])
    return out


def test_every_src_definition_is_read():
    # a definition that nothing in src reads is dead code, unless it is named
    # API that a test reads; its own def and the __all__ strings are not reads,
    # and a dunder is read by the language
    src = Path(cli.__file__).resolve().parent
    root = src.parent.parent
    defs, reads = [], set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs.extend(_definitions(tree, path.stem))
        reads |= _reads(tree)
    unread = sorted(qual for qual, name in defs
                    if name not in reads and not (name.startswith("__") and name.endswith("__")))
    assert unread == sorted(PAPER_FACING.keys() | HELD_FOR_PERFBENCH.keys())
    modules = {}
    for qual, (test, _) in PAPER_FACING.items():
        path, name = test.split("::")
        if path not in modules:
            modules[path] = _function_reads(root / "tests" / path)
        assert qual.rsplit(".", 1)[-1] in _test_reads(modules[path], name), (qual, test)
    for qual, (path, _) in HELD_FOR_PERFBENCH.items():
        tree = ast.parse((root / "perfbench" / path).read_text(encoding="utf-8"))
        assert qual.rsplit(".", 1)[-1] in _reads(tree), (qual, path)


def _writes_stdout(call: ast.Call) -> bool:
    """Whether ``call`` is a print without a file, or a print or a write to a stdout."""
    if isinstance(call.func, ast.Name) and call.func.id == "print":
        file = next((kw.value for kw in call.keywords if kw.arg == "file"), None)
        return file is None or "stdout" in ast.unparse(file)
    return (isinstance(call.func, ast.Attribute) and call.func.attr == "write"
            and "stdout" in ast.unparse(call.func.value))


def test_only_main_prints_to_stdout():
    # each command returns its document and its text; cli.main alone prints one
    src = Path(cli.__file__).resolve().parent
    writers = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call) and _writes_stdout(child):
                writers.append(scope)
            visit(child, scope)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert writers == ["cli.main"]


@pytest.mark.parametrize("command", list(cli._COMMANDS))
@pytest.mark.parametrize("fast", [CARTPOLE_FAST, INCLINE_FAST], ids=["cartpole", "incline"])
def test_command_returns_what_main_prints(tmp_path, capsys, fast, command):
    # a command given the loaded config prints nothing; main prints its
    # document under --json, its text otherwise, and returns its code
    cfg = write_cfg(tmp_path, "c.cfg", fast.format(out=tmp_path / "out"))
    for flags in ([], ["--json"]):
        argv = [command, "--config", cfg, *flags]
        code = main(argv)
        printed = capsys.readouterr().out
        rc = RunConfig.load(cfg, cli._parser().parse_args(argv))
        got_code, doc, text = cli._COMMANDS[command](rc)
        assert capsys.readouterr().out == ""
        assert got_code == code
        assert printed == (cli._json(doc) if flags else text) + "\n"


def test_last_duplicate_key_wins_and_unread_keys_are_accepted(tmp_path):
    ns = type("NS", (), {"tol": None, "grid": None, "seed": None, "out": None})
    path = write_cfg(tmp_path, "dup.cfg", "system = cartpole\ngains.k = 5\ngains.k = 40\n"
                     "params.psi = 0.3\nbuiltin.n_shape = 2\n")
    rc = RunConfig.load(path, ns)
    assert rc.gains.k == 40.0 and type(rc.params) is CartpoleParams
    assert (rc.dt, rc.ic, rc.out_dir, rc.grid_lo, rc.sweep_k) == (1e-4, [0.0] * 4, ".", -1.3, [])


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


def test_check_helmholtz_one_state(tmp_path, capsys):
    # N = 1: the batch of one state reports what the engines report at it
    import matchctl.helmholtz as hh
    from matchctl.lagrangian import controlled_implicit_sode

    cfg = write_cfg(tmp_path, "cp.cfg", CARTPOLE_FAST.format(out=tmp_path / "out")
                    + "helmholtz.n_states = 1\n")
    assert main(["check-helmholtz", "--config", cfg, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    rng = np.random.default_rng(0)
    x, th, qd = rng.uniform(-1.3, 1.3, 1), rng.uniform(-2.0, 2.0, 1), rng.uniform(-5.0, 5.0, 2)
    st = State(q=np.concatenate([x, th]), qdot=qd)
    p = CartpoleParams()
    sys_, shp = cartpole_system(p), ctl.cartpole_shaping(p, ctl.GainSelection(k=35.0, sigma=1.0))
    field = controlled_implicit_sode(sys_, shp)
    one = [hh.implicit_helmholtz_residuals(field, hh.legendre_fn(sys_, shp), st, sys_.dims),
           hh.explicit_helmholtz_residuals(field.to_explicit(),
                                           hh.multiplier_from_shaping(sys_, shp), st)]
    assert [r["title"] for r in doc["reports"]] == [f"{r.title} (1 states)" for r in one]
    assert [r["entries"] for r in doc["reports"]] == [r.to_dict()["entries"] for r in one]


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


def test_sweep(tmp_path, capsys):
    text = CARTPOLE_FAST.format(out=tmp_path / "out") + "sweep.k = 5, 35\nsweep.sigma = 1.0\n"
    cfg = write_cfg(tmp_path, "cp.cfg", text)
    assert main(["sweep", "--config", cfg]) == 0
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert rows[0].startswith("k,sigma,rho,k_min")
    assert len(rows) == 3


def test_sweep_starts_no_thread(tmp_path, capsys, monkeypatch):
    # rows run on the calling thread, in order
    def refuse(self):
        raise RuntimeError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    text = CARTPOLE_FAST.format(out=tmp_path / "out") + "sweep.k = 5, 35\nsweep.sigma = 0.5, 1\n"
    assert main(["sweep", "--config", write_cfg(tmp_path, "cp.cfg", text)]) == 0
    assert len((tmp_path / "out" / "sweep.csv").read_text().splitlines()) == 5


def test_sweep_incline_gain_near_pole_of_A(tmp_path, capsys):
    # At this gain an unclipped h-curve span puts a quadrature node exactly on
    # the pole of A(x); the observers must build the curve on the pole-free
    # window instead.
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


def test_sweep_reports_errored_rows(tmp_path, capsys):
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


def test_sweep_row_that_overflows_is_an_errored_row(tmp_path, capsys):
    # at k = 1e300 the cart-pole slope squares k on Python floats, which
    # overflows inside the row and is named there
    text = CARTPOLE_FAST.format(out=tmp_path / "out") + "sweep.k = 35, 1e300\n"
    cfg = write_cfg(tmp_path, "cp.cfg", text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")     # the shaped matrix overflows to NaN in silence
        assert main(["sweep", "--config", cfg]) == 1
    assert [w.category for w in caught] == []
    err = capsys.readouterr().err.splitlines()
    assert err == ["sweep row k=1e+300 sigma=1.0 rho=1.0: the cart-pole's shaped potential: "
                   "k ** 2 overflows at k = 1e+300"]
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert len(rows) == 3 and rows[1].endswith(",True,") and rows[2].split(",")[5] == "nan"
    assert rows[2].startswith("1e+300,") and rows[2].endswith(
        ",-1,False,the cart-pole's shaped potential: k ** 2 overflows at k = 1e+300")


def test_incline_sweep_row_that_overflows_is_an_errored_row(tmp_path, capsys):
    # at k = 1e300 tau * tau overflows in the incline's A(x), whose h-curve
    # names the gain's overflowing square inside the row
    text = INCLINE_FAST.format(out=tmp_path / "out") + "sweep.k = 35, 1e300\n"
    cfg = write_cfg(tmp_path, "in.cfg", text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sweep", "--config", cfg]) == 1
    assert [w.category for w in caught] == []
    err = capsys.readouterr().err.splitlines()
    assert err == ["sweep row k=1e+300 sigma=1.0 rho=2.0: the incline's h-curve: "
                   "k ** 2 overflows at k = 1e+300"]
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert len(rows) == 3 and rows[1].endswith(",True,") and rows[2].split(",")[5] == "nan"
    assert rows[2].startswith("1e+300,") and rows[2].endswith(
        ",-1,False,the incline's h-curve: k ** 2 overflows at k = 1e+300")


def test_simulate_stage_on_an_infinite_state_halts_nonfinite(tmp_path, capsys):
    # xdot(0) = 1e200 makes a stage state infinite in the first step, where
    # math.sin(inf) raises before the step's end is checked
    text = CARTPOLE_FAST.format(out=tmp_path / "out") + "sim.ic = 0.1, 0, 1e200, 0\n"
    cfg = write_cfg(tmp_path, "cp.cfg", text)
    assert main(["simulate", "--config", cfg, "--json"]) == 1
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert doc["events"] == [[1e-3, "nonfinite"]] and doc["rows"] == 1
    assert not [line for line in err.splitlines() if line.startswith("error:")]


def _not_json(constant: str):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_json_of_a_nan_drift_is_strict(tmp_path, capsys, command):
    # the nonfinite halt reads drift NaN, in simulate and in every sweep row;
    # --json writes it as null, which a strict parser accepts, not as NaN
    text = CARTPOLE_FAST.format(out=tmp_path / "out") + "sim.ic = 0.1, 0, 1e200, 0\n"
    cfg = write_cfg(tmp_path, "cp.cfg", text)
    main([command, "--config", cfg, "--json"])
    doc = json.loads(capsys.readouterr().out, parse_constant=_not_json)
    drifts = [doc["drift"]] if command == "simulate" else [row["drift"] for row in doc["rows"]]
    assert drifts and all(drift is None for drift in drifts)


@pytest.mark.parametrize("command", ["synthesize-tau", "simulate"])
def test_params_whose_metric_overflows_are_a_config_error(tmp_path, capsys, command):
    # beta ** 2 overflows at m = 1e300, in gain_bound among others
    text = CARTPOLE_FAST.format(out=tmp_path / "out") + "params.m = 1e300\n"
    cfg = write_cfg(tmp_path, "cp.cfg", text)
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "config error: params.m, M and l = 1e+300, 0.44, 0.215 give alpha * alpha = inf, "
        "which must be nonzero and finite\n")


@pytest.mark.parametrize("fast", [CARTPOLE_FAST, INCLINE_FAST], ids=["cartpole", "incline"])
@pytest.mark.parametrize("command", ["simulate", "check-matching", "check-helmholtz",
                                     "synthesize-tau", "sweep"])
def test_infinite_sigma_is_a_config_error(tmp_path, capsys, fast, command):
    text = fast.format(out=tmp_path / "out") + "gains.sigma = inf\n"
    assert main([command, "--config", write_cfg(tmp_path, "s.cfg", text)]) == 2
    assert capsys.readouterr().err == ("config error: gains.sigma must be positive and finite, "
                                       "got inf\n")


@pytest.mark.parametrize("M", ["1e-300", "1e-17"])
@pytest.mark.parametrize("fast", [CARTPOLE_FAST, INCLINE_FAST], ids=["cartpole", "incline"])
@pytest.mark.parametrize("command", ["simulate", "synthesize-tau"])
def test_params_whose_metric_determinant_vanishes_are_a_config_error(tmp_path, capsys, fast,
                                                                     command, M):
    # m + M rounds to m, so alpha gamma - beta^2 cos^2 x reads 0.0 at x = 0,
    # where gain_bound divides by it
    text = fast.format(out=tmp_path / "out") + f"params.M = {M}\n"
    assert main([command, "--config", write_cfg(tmp_path, "m.cfg", text)]) == 2
    assert capsys.readouterr().err == (
        f"config error: params.m, M and l = 0.14, {float(M)!r}, 0.215 give alpha * gamma - "
        f"beta ** 2 = 0.0, which must be positive\n")


@pytest.mark.parametrize("fast, command", [(CARTPOLE_FAST, "check-matching"),
                                           (INCLINE_FAST, "check-matching"),
                                           (INCLINE_FAST, "check-helmholtz")],
                         ids=["cartpole-matching", "incline-matching", "incline-helmholtz"])
def test_grid_bound_whose_square_overflows_is_a_config_error(tmp_path, capsys, fast, command):
    # grid points near 1e300 overflowed in x ** 2 (the incline's extra
    # potential) or in a squared difference step (the system validation)
    text = fast.format(out=tmp_path / "out") + "grid.hi = 1e300\n"
    assert main([command, "--config", write_cfg(tmp_path, "g.cfg", text)]) == 2
    lo = -1.0 if fast is INCLINE_FAST else -1.3
    assert capsys.readouterr().err == ("config error: grid.lo and grid.hi must have finite "
                                       f"squares, got grid.lo = {lo!r}, grid.hi = 1e+300\n")


def test_simulate_gain_whose_square_overflows_is_named(tmp_path, capsys):
    text = CARTPOLE_FAST.format(out=tmp_path / "out") + "gains.k = 1e160\n"
    cfg = write_cfg(tmp_path, "cp.cfg", text)
    assert main(["simulate", "--config", cfg]) == 1
    assert capsys.readouterr().err == ("error: ValueError: the cart-pole's shaped potential: "
                                       "k ** 2 overflows at k = 1e+160\n")


@pytest.mark.parametrize("command", ["simulate", "check-matching", "check-helmholtz",
                                     "synthesize-tau"])
def test_incline_gain_whose_square_overflows_is_named(tmp_path, capsys, command):
    # tau * tau overflowed in A(x), and the h-curve's integral named only the
    # -inf it met there
    text = INCLINE_FAST.format(out=tmp_path / "out") + "gains.k = 1e300\n"
    assert main([command, "--config", write_cfg(tmp_path, "in.cfg", text)]) == 1
    assert capsys.readouterr().err == ("error: ValueError: the incline's h-curve: "
                                       "k ** 2 overflows at k = 1e+300\n")


@pytest.mark.parametrize("name, value, failure", [
    ("sigma", 1e300, "the integrand is -inf at x = -1.0999453985526844, in the cell "
                     "[-1.1, -1.09725]"),
    ("rho", 1e300, "no convergence in the cell [-1.1, -1.09725] after 1 bisection levels"),
    ("rho", 1e-300, "the integrand is -inf at x = -1.0999453985526844, in the cell "
                    "[-1.1, -1.09725]"),
], ids=["sigma-huge", "rho-huge", "rho-tiny"])
def test_incline_gain_whose_potential_fails_is_named(tmp_path, capsys, name, value, failure):
    # the shaped potential's integral named only the cell where it failed
    text = INCLINE_FAST.format(out=tmp_path / "out") + f"gains.{name} = {value!r}\n"
    assert main(["simulate", "--config", write_cfg(tmp_path, "in.cfg", text)]) == 1
    gains = {"k": 35.0, "sigma": 1.0, "rho": 2.0, name: value}
    assert capsys.readouterr().err == (
        "error: ValueError: the incline's shaped potential at "
        + ", ".join(f"{key} = {val!r}" for key, val in gains.items())
        + f": cumulative integral: {failure}\n")


@pytest.mark.parametrize("fast, k, value", [(CARTPOLE_FAST, "1e160", None),
                                            (INCLINE_FAST, "1e156", 2.4948003869184e+291)],
                         ids=["cartpole", "incline"])
def test_tau_ode_at_a_huge_gain_fails_without_warning(tmp_path, capsys, fast, k, value):
    # the cart-pole's tau-ODE residual overflows to a NaN, which fails its
    # entry without a numpy RuntimeWarning (an error under this suite's filter)
    text = fast.format(out=tmp_path / "out") + f"gains.k = {k}\n"
    assert main(["check-matching", "--config", write_cfg(tmp_path, "k.cfg", text), "--json"]) == 1
    out, err = capsys.readouterr()
    (entry,) = json.loads(out)["reports"][-1]["entries"]
    assert (entry["name"], entry["value"], entry["pass"], err) == ("tau_ode", value, False, "")


def test_incline_gain_whose_square_overflows_where_a_is_finite_runs(tmp_path, capsys):
    # k ** 2 overflows at 1e155, but tau * tau does not: the loop runs
    text = INCLINE_FAST.format(out=tmp_path / "out") + "gains.k = 1e155\n"
    assert main(["simulate", "--config", write_cfg(tmp_path, "in.cfg", text)]) == 0
    assert capsys.readouterr().err == ""


def test_incline_gain_whose_potential_sum_overflows_is_named(tmp_path, capsys):
    # at k = 1e155 and rho = 1 the shaped potential's slope is finite but its
    # 8-point sums overflow; numpy warned many times before the named failure
    text = INCLINE_FAST.format(out=tmp_path / "out") + "gains.k = 1e155\ngains.rho = 1.0\n"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", write_cfg(tmp_path, "in.cfg", text)]) == 1
    assert [w.category for w in caught] == []
    assert capsys.readouterr().err == (
        "error: ValueError: the incline's shaped potential at k = 1e+155, sigma = 1.0, "
        "rho = 1.0: cumulative integral: the rule's sum overflows in the cell "
        "[-1.1, -1.09725]\n")


def test_cartpole_potential_whose_spline_overflows_is_named(tmp_path, capsys):
    # at sigma = 1e300 the shaped potential's values are finite, but its
    # spline's coefficients overflow, where the march never reads them
    text = CARTPOLE_FAST.format(out=tmp_path / "out") + "gains.sigma = 1e300\n"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", write_cfg(tmp_path, "cp.cfg", text)]) == 1
    assert [w.category for w in caught] == []
    assert capsys.readouterr().err == (
        "error: ValueError: the cart-pole's shaped potential at k = 35.0, sigma = 1e+300: "
        "the spline's coefficients overflow\n")


@pytest.mark.parametrize("fast, codes", [(CARTPOLE_FAST, (0, 1)), (INCLINE_FAST, (1, 1))],
                         ids=["cartpole", "incline"])
def test_check_commands_on_a_far_grid_warn_nothing(tmp_path, capsys, fast, codes):
    # grid.hi = 1e150 squares finitely, so it is no config error; the
    # incline's h-curve is then read far outside its knots, where it overflows
    # to a NaN that fails its entry without a numpy RuntimeWarning (an error
    # under this suite's warning filter)
    cfg = write_cfg(tmp_path, "far.cfg", fast.format(out=tmp_path / "out") + "grid.hi = 1e150\n")
    assert (main(["check-helmholtz", "--config", cfg]),
            main(["check-matching", "--config", cfg])) == codes
    assert capsys.readouterr().err == ""


def test_simulate_step_count_that_overflows_is_a_config_error(tmp_path, capsys, monkeypatch):
    # 1e300 / 1e-300 is inf: named before the loop and its curves are built
    monkeypatch.setattr(ctl, "cartpole_observed_loop", None)
    text = CARTPOLE_FAST.format(out=tmp_path / "out") + "sim.t_end = 1e300\nsim.dt = 1e-300\n"
    assert main(["simulate", "--config", write_cfg(tmp_path, "cp.cfg", text)]) == 2
    assert capsys.readouterr().err == ("config error: sim.t_end / sim.dt must be a finite step "
                                       "count, got 1e+300 / 1e-300 = inf\n")


CONFIGS =Path(__file__).resolve().parent.parent / "configs"


def test_shipped_incline_csv_is_that_of_one_process(tmp_path, capsys, monkeypatch):
    # 10,001 rows are written on two processes where the host has two CPUs;
    # the golden incline case is 1,001 rows, on one
    argv = ["simulate", "--config", str(CONFIGS / "incline.cfg"), "--out"]
    assert main(argv + [str(tmp_path / "two")]) == 0
    monkeypatch.delattr(os, "fork")
    assert main(argv + [str(tmp_path / "one")]) == 0
    csv = [(tmp_path / side / "trajectory.csv").read_bytes() for side in ("two", "one")]
    assert csv[0] == csv[1] and csv[0].count(b"\n") == 10_002


# 9,001 rows: three observer blocks, so a CSV formatted while the loop is marched
LONG_RUN = "sim.t_end = 9.0\n"


def counted_forks(monkeypatch, in_child=None) -> list:
    """Patch ``os.fork`` to run ``in_child()`` in the child; returns the list of
    forked pids."""
    fork, pids = os.fork, []

    def forked():
        pid = fork()
        if pid == 0 and in_child is not None:
            in_child()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", forked)
    return pids


@pytest.mark.parametrize("fast", [CARTPOLE_FAST, INCLINE_FAST], ids=["cartpole", "incline"])
def test_pipelined_simulate_csv_is_that_of_one_process(tmp_path, capsys, monkeypatch, fast):
    # the CSV formatted by a forked child while the loop is marched, and the
    # one formatted here block by block where os.fork is missing; neither
    # formats the finished trajectory
    cfg = write_cfg(tmp_path, "s.cfg", fast.format(out=tmp_path / "out") + LONG_RUN)
    monkeypatch.delattr(cli.simmod, "write_csv")
    forks = counted_forks(monkeypatch)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "two")]) == 0
    assert len(forks) == FORKS
    monkeypatch.delattr(os, "fork")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "one")]) == 0
    csv = [(tmp_path / side / "trajectory.csv").read_bytes() for side in ("two", "one")]
    assert csv[0] == csv[1] and csv[0].count(b"\n") == 9_002
    assert [p.name for p in (tmp_path / "two").iterdir()] == ["trajectory.csv"]


@pytest.mark.parametrize("fast", [CARTPOLE_FAST, INCLINE_FAST], ids=["cartpole", "incline"])
def test_simulate_keeps_its_times_and_energies_alone(tmp_path, capsys, monkeypatch, fast):
    # the rows of a simulate run are in its CSV alone: while it runs it holds
    # 16 bytes a row of them (t and E), and once it returns, none
    cfg = write_cfg(tmp_path, "s.cfg", fast.format(out=tmp_path / "out") + LONG_RUN)
    integrate, seen = cli.simmod.integrate, []

    def watched(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        arrays = [traj.times, traj.states, traj.energies]
        held = sum((a if a.base is None else a.base).nbytes for a in arrays)
        seen.append((held, len(traj.times), traj.controls,
                     [weakref.ref(x) for x in [traj, *arrays]]))
        return traj

    monkeypatch.setattr(cli.simmod, "integrate", watched)
    assert main(["simulate", "--config", cfg]) == 0
    [(held, rows, controls, refs)] = seen
    assert rows == 9_001 and held == 16 * rows and controls is None
    assert [ref() for ref in refs] == [None] * 4


@pytest.mark.skipif(not FORKS, reason="formats on one process")
def test_csv_child_gone_mid_simulate_is_a_named_error(tmp_path, capfd, monkeypatch):
    # the child ends before it reads a block: exit 1 with its RuntimeError,
    # not the BrokenPipeError of the parent's write to it, which would be
    # taken for a closed stdout (exit 141, stdout sent to /dev/null)
    cfg = write_cfg(tmp_path, "cp.cfg", CARTPOLE_FAST.format(out=tmp_path / "out") + LONG_RUN)
    forks = counted_forks(monkeypatch, in_child=lambda: os._exit(5))
    assert main(["simulate", "--config", cfg, "--json"]) == 1
    print("stdout is open")
    out, err = capfd.readouterr()
    assert out == "stdout is open\n"
    assert re.fullmatch(r"error: RuntimeError: trajectory CSV: the writer child \(pid \d+\) "
                        r"ended with exit status 5\n", err)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert list((tmp_path / "out").iterdir()) == []


def count_marches(monkeypatch) -> list:
    """Patch the integrator that the sweep's rows call; returns the list that
    each call appends to."""
    calls = []
    integrate = cli.simmod.integrate

    def counted(*args, **kwargs):
        calls.append(args[0])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(cli.simmod, "integrate", counted)
    return calls


@pytest.mark.parametrize("system", ["cartpole", "incline"])
def test_sweep_builds_one_system_per_row(tmp_path, capsys, monkeypatch, system):
    # a row's gain check and its observed loop read one system and shaping
    name = f"{system}_system"
    builds = []
    build = getattr(ctl, name)

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(ctl, name, counted)    # cli builds no system itself
    argv = ["sweep", "--config", str(CONFIGS / f"{system}.cfg"), "--out", str(tmp_path)]
    assert main(argv) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert len(builds) == len(rows) == {"cartpole": 6, "incline": 1}[system]


def test_shipped_cartpole_sweep_integrates_each_gain_once(tmp_path, capsys, monkeypatch):
    # the cart-pole loop reads k alone: 3 gains x 2 sigmas are 6 rows and 3
    # marches, and a second sweep keeps nothing from the first
    marches = count_marches(monkeypatch)
    argv = ["sweep", "--config", str(CONFIGS / "cartpole.cfg"), "--out", str(tmp_path)]
    for run in (1, 2):
        assert main(argv) == 0
        assert len(marches) == 3 * run
        assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 7


@pytest.mark.parametrize("fast, sweep, code, marches, memoless", [
    (CARTPOLE_FAST, "sweep.k = 2.0, 5, 35\nsweep.sigma = 0.5, 1.0\n", 1, 2, 4),
    (INCLINE_FAST, "sweep.k = 20, 35\nsweep.sigma = 0.3, 1\n", 0, 4, 4),
], ids=["cartpole", "incline"])
def test_sweep_rows_are_those_of_rows_run_alone(tmp_path, capsys, monkeypatch, fast, sweep,
                                                code, marches, memoless):
    # sweep.csv, --json and stderr as when every row integrates its own loop;
    # k = 2.0 is below the gain bound, an errored row at both sigmas
    cfg = write_cfg(tmp_path, "s.cfg", fast.format(out=tmp_path / "out")
                    + "sim.t_end = 0.5\n" + sweep)
    calls = count_marches(monkeypatch)

    def run():
        got = main(["sweep", "--config", cfg, "--json"])
        out, err = capsys.readouterr()
        return got, out, err, (tmp_path / "out" / "sweep.csv").read_bytes()

    shared = run()
    assert len(calls) == marches
    sweep_one = cli._sweep_one
    monkeypatch.setattr(cli, "_sweep_one", lambda rc, k, s, r, marches: sweep_one(rc, k, s, r, {}))
    alone = run()
    assert len(calls) == marches + memoless
    assert shared == alone and shared[0] == code
    assert shared[2].splitlines() == [f"sweep row k=2.0 sigma={s} rho=1.0: k fails the bound "
                                      "even at the equilibrium" for s in (0.5, 1.0) if code]


@pytest.mark.parametrize("extra, key", [
    ("sweep.sigma = 1.0, 0\n", "sweep.sigma"),
    ("sweep.sigma = -1\n", "sweep.sigma"),
    ("sweep.sigma = nan\n", "sweep.sigma"),
    ("sweep.sigma = 1.0, inf\n", "sweep.sigma"),
    ("sweep.k = 35, inf\n", "sweep.k"),
    ("sweep.k = nan\n", "sweep.k"),
    ("sim.ic = 0.1, 0.0, 0.0\n", "sim.ic"),
    ("sweep.rho = 0.0, 2.0\n", "sweep.rho"),
    ("sweep.rho = nan\n", "sweep.rho"),
    ("sweep.rho = 2.0, -inf\n", "sweep.rho"),
], ids=["sigma-zero", "sigma-negative", "sigma-nan", "sigma-inf", "k-inf", "k-nan", "ic-length",
        "rho-zero", "rho-nan", "rho-inf"])
def test_sweep_bad_values_are_config_errors(tmp_path, capsys, extra, key):
    text = CARTPOLE_FAST.format(out=tmp_path / "out") + "sweep.k = 35\n" + extra
    cfg = write_cfg(tmp_path, "cp.cfg", text)
    assert main(["sweep", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert not (tmp_path / "out" / "sweep.csv").exists()


@pytest.mark.parametrize("rho", ["0.0", "-0.0", "nan", "inf"])
@pytest.mark.parametrize("command", ["simulate", "check-matching", "check-helmholtz",
                                     "synthesize-tau", "sweep"])
def test_invalid_rho_is_config_error(tmp_path, capsys, command, rho):
    text = INCLINE_FAST.format(out=tmp_path / "out") + f"gains.rho = {rho}\n"
    cfg = write_cfg(tmp_path, "rho.cfg", text)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: gains.rho must be finite and nonzero, got ")


def test_cartpole_sweep_ignores_rho(tmp_path, capsys):
    # the cart-pole shaping reads no rho (README, `sweep` and `gains.rho`)
    text = CARTPOLE_FAST.format(out=tmp_path / "out") + "sim.t_end = 0.05\nsweep.rho = 1, -1, 5\n"
    cfg = write_cfg(tmp_path, "rho.cfg", text)
    assert main(["sweep", "--config", cfg, "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row.pop("rho") for row in rows] == [1.0, -1.0, 5.0]
    assert rows[0] == rows[1] == rows[2] and rows[0]["pass"] is True


def test_sweep_negative_rho_is_reported_not_rejected(tmp_path, capsys):
    text = INCLINE_FAST.format(out=tmp_path / "out") + "sweep.rho = -1.0, 2.0\n"
    cfg = write_cfg(tmp_path, "rho.cfg", text)
    assert main(["sweep", "--config", cfg, "--json"]) == 0
    neg, pos = json.loads(capsys.readouterr().out)["rows"]
    assert "error" not in neg and neg["min_eig_gtilde"] < 0 and neg["pass"] is False
    assert pos["min_eig_gtilde"] > 0 and pos["pass"] is True


@pytest.mark.parametrize("fast, sweep", [
    (CARTPOLE_FAST, "sweep.k = 5, 35\nsweep.rho = -0.7, 1, 2\n"),
    (INCLINE_FAST, "sweep.k = 20, 35\nsweep.sigma = 0.3, 1\nsweep.rho = -0.7, 2\n"),
], ids=["cartpole", "incline"])
def test_sweep_min_eig_is_the_shaped_multipliers_minimum(tmp_path, capsys, fast, sweep):
    text = fast.format(out=tmp_path / "out") + "sim.t_end = 0.05\n" + sweep
    cfg = write_cfg(tmp_path, "eig.cfg", text)
    main(["sweep", "--config", cfg, "--json"])        # the exit code is not under test
    rows = json.loads(capsys.readouterr().out)["rows"]
    rc = RunConfig.load(cfg, cli._parser().parse_args(["sweep", "--config", cfg]))
    p = rc.params
    sys_ = cartpole_system(p) if rc.system == "cartpole" else incline_system(p)
    shaping = ctl.cartpole_shaping if rc.system == "cartpole" else ctl.incline_base_shaping
    xs = np.linspace(rc.grid_lo, rc.grid_hi, max(9, rc.grid_n // 4))
    assert any(row["rho"] < 0 for row in rows)
    for row in rows:
        gains = ctl.GainSelection(k=row["k"], sigma=row["sigma"], rho=row["rho"],
                                  c=rc.gains.c, s0=rc.gains.s0)
        shp = shaping(p, gains)
        eigs = [np.linalg.eigvalsh(ctl.shaped_multipliers(sys_, shp, np.array([x, 0.0])).gtilde)
                for x in xs]
        assert row["min_eig_gtilde"] == min(float(e.min()) for e in eigs)


def test_bad_usage_exit_codes(tmp_path, capsys):
    assert main(["no-such-command"]) == 2
    assert main(["simulate"]) == 2        # missing --config
    cfg = write_cfg(tmp_path, "bad.cfg", "system = cartpole\nsim.dt = soon\n")
    assert main(["simulate", "--config", cfg]) == 2


def test_help_lists_every_command(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("check-matching", "check-helmholtz", "synthesize-tau", "simulate", "sweep"):
        assert name in out


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


def test_builtin_test_check_matching_has_no_failing_entry(tmp_path, capsys):
    # builtin-test shapes with the SM3 tau, so the new-tau ODE row does not apply
    cfg = write_cfg(tmp_path, "bt.cfg", """
system = builtin-test
builtin.n_shape = 1
builtin.n_group = 2
grid.n = 7
""")
    assert main(["check-matching", "--config", cfg, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"]
    entries = [e for rep in doc["reports"] for e in rep["entries"]]
    assert all(e["pass"] or e["skipped"] for e in entries)
    assert "tau_ode" not in {e["name"] for e in entries}


def test_tau_ode_row_fails_on_a_nan_residual(tmp_path, capsys, monkeypatch):
    import matchctl.matching as mt
    real = mt.new_tau_ode_residual

    def one_nan(sys_, fields, x):
        res = real(sys_, fields, x).copy()
        res[3] = np.nan
        return res

    monkeypatch.setattr(mt, "new_tau_ode_residual", one_nan)
    cfg = write_cfg(tmp_path, "cp.cfg", CARTPOLE_FAST.format(out=tmp_path / "out"))
    assert main(["check-matching", "--config", cfg, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    (row,) = [e for rep in doc["reports"] for e in rep["entries"] if e["name"] == "tau_ode"]
    assert row["value"] is None and row["pass"] is False    # NaN is null in strict JSON
    assert not doc["pass"]


@pytest.mark.parametrize("command, extra, argv, key", [
    ("check-matching", "grid.n = 0\n", [], "grid.n"),
    ("check-matching", "", ["--grid", "0"], "grid.n"),
    ("check-matching", "tau.mode = new-ode\ngrid.lo = 0.5\ngrid.hi = 0.5\n", [], "grid.lo"),
    ("simulate", "sim.dt = 0\n", [], "sim.dt"),
    ("simulate", "sim.t_end = -1\n", [], "sim.t_end"),
    ("check-helmholtz", "helmholtz.n_states = 0\n", [], "helmholtz.n_states"),
    ("simulate", "tol.drift = nan\n", [], "tol.drift"),
    ("simulate", "sim.guard = nan\n", [], "sim.guard"),
    ("check-helmholtz", "helmholtz.v_max = -1\n", [], "helmholtz.v_max"),
    ("check-helmholtz", "helmholtz.v_max = nan\n", [], "helmholtz.v_max"),
    ("check-matching", "grid.lo = 1.3\ngrid.hi = -1.3\n", [], "grid.lo"),
    ("check-helmholtz", "grid.lo = 1.3\ngrid.hi = -1.3\n", [], "grid.lo"),
    ("check-matching", "grid.lo = nan\n", [], "grid.lo"),
    ("check-helmholtz", "grid.lo = nan\n", [], "grid.lo"),
    ("check-matching", "params.l = 0\n", [], "params.l"),
    ("check-matching", "params.grav = nan\n", [], "params.grav"),
    ("check-helmholtz", "params.grav = nan\n", [], "params.grav"),
    ("check-matching", "system = incline\nparams.psi = 2.0\n", [], "params.psi"),
    ("check-matching", "system = incline\nparams.psi = nan\n", [], "params.psi"),
    ("check-matching", "system = builtin-test\nbuiltin.n_shape = 0\n", [],
     "builtin.n_shape"),
    ("synthesize-tau", "gains.c = nan\n", [], "gains.c"),
    ("simulate", "gains.s0 = inf\n", [], "gains.s0"),
    ("synthesize-tau", "gains.k = abc\n", [], "config error: bad value for gains.k"),
    ("simulate", "sim.dt = inf\n", [], "sim.dt"),
    ("simulate", "sim.t_end = inf\n", [], "sim.t_end"),
    ("simulate", "sim.ic = nan, 0, 0, 0\n", [], "sim.ic"),
    ("simulate", "sim.ic = 0, 0, inf, 0\n", [], "sim.ic"),
    ("check-helmholtz", "seed = -1\n", [], "seed"),
    ("check-helmholtz", "", ["--seed", "-1"], "seed"),
    ("check-helmholtz", "system = builtin-test\nbuiltin.seed = -1\n", [], "builtin.seed"),
    ("check-matching", "gains.kk = 5\n", [],
     "config error: unknown config key: gains.kk (did you mean gains.k?)"),
    ("simulate", "sim.tend = 0.1\n", [], "config error: unknown config key: sim.tend"),
], ids=["grid-n", "grid-override", "empty-ode-grid", "dt", "t-end", "n-states",
        "nan-drift-tol", "nan-guard", "negative-v-max", "nan-v-max",
        "reversed-grid-matching", "reversed-grid-helmholtz", "nan-grid-matching",
        "nan-grid-helmholtz", "zero-length", "nan-grav-matching", "nan-grav-helmholtz",
        "steep-psi", "nan-psi", "no-shape-coordinate", "nan-c", "infinite-s0",
        "unparsed-gain", "infinite-dt", "infinite-t-end", "nan-ic", "infinite-ic",
        "negative-seed",
        "negative-seed-override", "negative-builtin-seed", "misspelt-gain",
        "misspelt-sim-key"])
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


@pytest.mark.parametrize("command", ["simulate", "check-matching", "check-helmholtz",
                                     "synthesize-tau"])
def test_gain_just_above_bound_is_config_error(tmp_path, capsys, command):
    # above the bound, but the pole-free window is narrower than its margins
    text = INCLINE_FAST.format(out=tmp_path / "out") + "gains.k = 3.0566\n"
    cfg = write_cfg(tmp_path, "near.cfg", text)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: gains.k = 3.0566: the pole-free window (")
    assert "requested span (" in err


ANCHOR_MESSAGE = "does not hold the anchor x = 0 of the integrals on it"


@pytest.mark.parametrize("command", ["simulate", "check-matching", "check-helmholtz",
                                     "synthesize-tau"])
def test_gain_with_anchor_outside_window_is_config_error(tmp_path, capsys, command):
    # at k = 3.2 the pole-free window of A(x) lies right of x = 0, where the
    # h-curve and the shaped potential are anchored
    text = INCLINE_FAST.format(out=tmp_path / "out") + "gains.k = 3.2\n"
    cfg = write_cfg(tmp_path, "anchor.cfg", text)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: gains.k = 3.2: the pole-free window (")
    assert err.rstrip().endswith(ANCHOR_MESSAGE)


@pytest.mark.parametrize("command", ["simulate", "check-matching", "check-helmholtz",
                                     "synthesize-tau"])
def test_incline_with_negative_psi(tmp_path, capsys, command):
    # psi < 0 mirrors the pole-free window of A(x): its upper end is clipped
    text = INCLINE_FAST.format(out=tmp_path / "out") + "params.psi = -0.3\n"
    cfg = write_cfg(tmp_path, "left.cfg", text)
    assert main([command, "--config", cfg]) == 0


@pytest.mark.parametrize("extra", ["grid.hi = 1.45\n", "params.psi = -0.3\ngrid.lo = -1.45\n"])
def test_simulate_h_curve_margin_covers_the_potential_span(tmp_path, capsys, extra):
    # the shaped potential spans the grid and 0.1 more, out to 1.55 here, past
    # INCLINE_LOOP_SPAN: the h-curve's margin of 0.05 past that span sets
    # where the curve ends
    cfg = write_cfg(tmp_path, "wide.cfg", INCLINE_FAST.format(out=tmp_path / "out") + extra)
    assert main(["simulate", "--config", cfg]) == 0


def test_sweep_gain_with_anchor_outside_window_is_errored_row(tmp_path, capsys):
    text = INCLINE_FAST.format(out=tmp_path / "out") + "sweep.k = 3.2, 35\n"
    cfg = write_cfg(tmp_path, "anchor.cfg", text)
    assert main(["sweep", "--config", cfg, "--json"]) == 1
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows[0]["error"].startswith("the pole-free window (")
    assert rows[0]["error"].endswith(ANCHOR_MESSAGE)
    assert "error" not in rows[1]


def test_unexpected_error_names_its_class(tmp_path, capsys, monkeypatch):
    def broken(rc):
        raise IndexError("list index out of range")

    monkeypatch.setattr(cli, "_build_system_and_shaping", broken)
    cfg = write_cfg(tmp_path, "cp.cfg", CARTPOLE_FAST.format(out=tmp_path / "out"))
    assert main(["check-matching", "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: IndexError: list index out of range\n"


# sha256 of every command's outputs on the shipped configs, their new-ode
# variants and a builtin-test config, with the overrides each case runs at;
# printed by tests/golden_record.py
GOLDEN_DIGESTS = {
    "cartpole/check-matching": {
        "overrides": {}, "exit": 0,
        "stdout": "a7def0b064736750411666dd022f06f51f2e39c9875a318c804e6fe4269147dc",
    },
    "cartpole/check-helmholtz": {
        "overrides": {"helmholtz.n_states": "4"}, "exit": 0,
        "stdout": "ceba43c6c5220b28e5a7e39a8275c94b083311f29591fd6350c413aab3af58a6",
    },
    "cartpole/synthesize-tau": {
        "overrides": {}, "exit": 0,
        "stdout": "69a068a42959ca38b0e3dc919fec17aca453555a9814e33318dd6b0ef3c5b769",
        "tau_samples.csv": "fd313fd0569bca3a65e038e6f2ad04ba5e037b7db0b81564f7a332aac4c739c4",
    },
    "cartpole/simulate": {
        "overrides": {"sim.t_end": "1.0"}, "exit": 0,
        "stdout": "c8049f76786b3d9f8bdd2c0d23394a4c7c2d96aec297a6ca41b82fcb6a0a16e3",
        "trajectory.csv": "66ac43c3f1e77ab65ea0a86ac25d3b345ab14e2646af5dbaf5ec04b0e599f364",
        "trajectory.csv without E": "08d2240c1fdc7a317b95a7a908c2069293f973e2d3dc9042215aa5da2eaae17e",
    },
    "cartpole/sweep": {
        "overrides": {}, "exit": 0,
        "stdout": "9450339d1cdc4c6517f7c9791ec31a5cac63c53ea3c2991cf24cc32d0ec980ee",
        "sweep.csv": "ae64eecac2f8afe4432d38fd0e87ece0f69e346f0c480638160f3d19afd4c506",
        "sweep.csv without drift": "17f88abedbd8d073e95e315915f4892db50c17b1fee378f35f4fadd813c4c6e6",
    },
    "incline/check-matching": {
        "overrides": {}, "exit": 0,
        "stdout": "030d6e316602053b6bd5ace2b0a72ce7ca057a293b9eb316e88bd8249e29f5dd",
    },
    "incline/check-helmholtz": {
        "overrides": {"helmholtz.n_states": "4"}, "exit": 0,
        "stdout": "14ad8798676e982b81827323fcba86072daf16779e6b7da74b5be00c0c881713",
    },
    "incline/synthesize-tau": {
        "overrides": {}, "exit": 0,
        "stdout": "20c6b2203e9a63167696136333bba9ffa1a531517d3802da3185030903331a51",
        "tau_samples.csv": "dac3d19feb050280e109883b9e720e0de3b32d43e93ebff65759688dbc0ed1d8",
    },
    "incline/simulate": {
        "overrides": {"sim.t_end": "1.0"}, "exit": 0,
        "stdout": "ed957e93ca540a0b34b9c15bf2f32d29313fa17c48862fba33b43e816d099476",
        "trajectory.csv": "91fd54cadeb1fc36e521fd638d7f6ee42a3804a144395c8e77da69a90a69f481",
        "trajectory.csv without E": "274543b7c80323018b09c4000a69377a3b07d1be14430576ca96600d701b9173",
    },
    "incline/sweep": {
        "overrides": {}, "exit": 0,
        "stdout": "f982993b5c8f593757a032facbe3b8bc949745e83d90b9beb79d7e964ebe03db",
        "sweep.csv": "38c864e92231388fdfb8367761b2f23b73eabb988837e7353214341b3cb4dc93",
        "sweep.csv without drift": "6ae5c0f6fc76ef38af7214e447e415bf6052d071190a9cd4991ba55cb5977607",
    },
    "cartpole-new-ode/check-matching": {
        "overrides": {}, "exit": 0,
        "stdout": "e9abd65b5b903efa5fb464c20d6e29aaf1e6cd58de74182fd635e2734a1112d8",
    },
    "cartpole-new-ode/check-helmholtz": {
        "overrides": {"helmholtz.n_states": "4"}, "exit": 0,
        "stdout": "d597e3c04507c6de3ae65495be45bace879b9c2305a848e263ae52e1c91ff4c2",
    },
    "cartpole-new-ode/synthesize-tau": {
        "overrides": {}, "exit": 0,
        "stdout": "69a068a42959ca38b0e3dc919fec17aca453555a9814e33318dd6b0ef3c5b769",
        "tau_samples.csv": "40b9bc2bee01e7ed86c5c06839e0a8395a0360f4f3e7d9e79b88ec8f67a9732d",
    },
    "cartpole-new-ode/simulate": {
        "overrides": {"sim.t_end": "1.0"}, "exit": 0,
        "stdout": "c8049f76786b3d9f8bdd2c0d23394a4c7c2d96aec297a6ca41b82fcb6a0a16e3",
        "trajectory.csv": "66ac43c3f1e77ab65ea0a86ac25d3b345ab14e2646af5dbaf5ec04b0e599f364",
        "trajectory.csv without E": "08d2240c1fdc7a317b95a7a908c2069293f973e2d3dc9042215aa5da2eaae17e",
    },
    "cartpole-new-ode/sweep": {
        "overrides": {}, "exit": 0,
        "stdout": "9450339d1cdc4c6517f7c9791ec31a5cac63c53ea3c2991cf24cc32d0ec980ee",
        "sweep.csv": "ae64eecac2f8afe4432d38fd0e87ece0f69e346f0c480638160f3d19afd4c506",
        "sweep.csv without drift": "17f88abedbd8d073e95e315915f4892db50c17b1fee378f35f4fadd813c4c6e6",
    },
    "incline-new-ode/check-matching": {
        "overrides": {}, "exit": 0,
        "stdout": "c481c47c37f045d66e6b527a2c27a4b520612c8b5625fb3b284acb0a53f0d64c",
    },
    "incline-new-ode/check-helmholtz": {
        "overrides": {"helmholtz.n_states": "4"}, "exit": 0,
        "stdout": "3df04a6b7694f62fdfced309ffa90b5f1b13ec12ba4d2fea61a282b69a40864f",
    },
    "incline-new-ode/synthesize-tau": {
        "overrides": {}, "exit": 0,
        "stdout": "20c6b2203e9a63167696136333bba9ffa1a531517d3802da3185030903331a51",
        "tau_samples.csv": "b6c190946d078342ffe01d103090e2ad1dd5dd00c8a32dfa2febb17c53c52e73",
    },
    "incline-new-ode/simulate": {
        "overrides": {"sim.t_end": "1.0"}, "exit": 0,
        "stdout": "ed957e93ca540a0b34b9c15bf2f32d29313fa17c48862fba33b43e816d099476",
        "trajectory.csv": "91fd54cadeb1fc36e521fd638d7f6ee42a3804a144395c8e77da69a90a69f481",
        "trajectory.csv without E": "274543b7c80323018b09c4000a69377a3b07d1be14430576ca96600d701b9173",
    },
    "incline-new-ode/sweep": {
        "overrides": {}, "exit": 0,
        "stdout": "f982993b5c8f593757a032facbe3b8bc949745e83d90b9beb79d7e964ebe03db",
        "sweep.csv": "38c864e92231388fdfb8367761b2f23b73eabb988837e7353214341b3cb4dc93",
        "sweep.csv without drift": "6ae5c0f6fc76ef38af7214e447e415bf6052d071190a9cd4991ba55cb5977607",
    },
    "builtin/check-matching": {
        "overrides": {}, "exit": 0,
        "stdout": "8001e67dad2eeb2201703a053e770887c0c673ba478dc8e97327dc2f6ac7b66b",
    },
    "builtin/check-helmholtz": {
        "overrides": {"helmholtz.n_states": "4"}, "exit": 0,
        "stdout": "23010c41c00f1c42a46172783d002ecfa5a0719800ed496f19e0db3404452828",
    },
    "builtin/synthesize-tau": {
        "overrides": {}, "exit": 0,
        "stdout": "341819d312c530e644354e23c0754b312643863c2731db0cae481b1ab724a5b3",
        "tau_samples.csv": "856959c16f4f156efb77e166b4f7c96d1a5b49f1d47c01b82db40da55288efcc",
    },
    "builtin/simulate": {
        "overrides": {}, "exit": 0,
        "stdout": "125a322ce531084333ba610fc93d7b1efad5b345753bee8a367349e907bc69e9",
        "trajectory.csv": "a415ca326848f73e29b05d6ee0b0ca1830801b9cd71f91456f7a539a2bf5fc01",
    },
    "builtin/sweep": {
        "overrides": {}, "exit": 2,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "d28a4902d43448346b29bb614224858cff9fb6b0542ff27a789d2a2a467180a3",
    },
}


@pytest.mark.parametrize("config", golden.CONFIGS)
def test_outputs_match_recorded_digests(tmp_path, config):
    """Exit code and sha256 of stdout, stderr and the written file of all five
    commands on one config, against the table recorded before the last change
    that was meant to keep every output.

    Every float in these outputs goes through the host's libm (``math`` and
    numpy's sin, cos, exp, log and pow), so the digests depend on it: they were
    recorded with glibc 2.36 on x86-64 and hold only where libm gives the same
    floats; elsewhere re-record the table with golden_record.py.
    """
    got, want = {}, {}
    for command in golden.COMMANDS:
        case = GOLDEN_DIGESTS[f"{config}/{command}"]
        workdir = tmp_path / command
        workdir.mkdir()
        code, digests = golden.run_case(config, command, case["overrides"], workdir)
        got[command] = {"exit": code, **digests}
        want[command] = {k: v for k, v in case.items() if k != "overrides"}
    assert got == want


def test_singular_group_block_is_a_named_error(tmp_path, capsys, monkeypatch):
    import matchctl.fields as fl
    from matchctl.lagrangian import ShapingParams
    from matchctl.model import Dims, build_mechanical_system

    # g_gg = x vanishes at the grid point x = 0 (grid.n = 11 on [-1.3, 1.3])
    sys_ = build_mechanical_system(Dims(1, 1), [[fl.constant(1.0, 1)]],
                                   [[fl.constant(0.0, 1)]], [[fl.coordinate(0, 1)]],
                                   fl.constant(0.0, 2))
    shp = ShapingParams(tau=((fl.constant(0.0, 1),),), sigma=np.eye(1))
    monkeypatch.setattr(cli, "_build_system_and_shaping", lambda rc: (sys_, shp))
    cfg = write_cfg(tmp_path, "cp.cfg", CARTPOLE_FAST.format(out=tmp_path / "out"))
    assert main(["check-matching", "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: ValueError: g_gg is singular at x = 0\n"


IMPORT_HYGIENE = """
import json, sys
import matchctl.cli
codes = [matchctl.cli.main([command, "--config", cfg]) for cfg in sys.argv[1:]
         for command in ("check-matching", "check-helmholtz", "synthesize-tau",
                         "simulate", "sweep")]
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def test_commands_import_no_scipy(tmp_path):
    # a fresh interpreter, so that the test suite's own scipy imports do not count
    import matchctl

    short = "sweep.k = 30, 35\nsweep.sigma = 1.0\nsim.t_end = 0.2\n"
    cfgs = [write_cfg(tmp_path, name, base.format(out=tmp_path / "out") + extra + short)
            for name, base, extra in (("cp.cfg", CARTPOLE_FAST, ""),
                                      ("inc.cfg", INCLINE_FAST, ""),
                                      ("ode.cfg", CARTPOLE_FAST, "tau.mode = new-ode\n"))]
    src = os.path.dirname(os.path.dirname(matchctl.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", IMPORT_HYGIENE, *cfgs], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout.splitlines()[-1])
    assert doc["codes"] == [0] * 15
    assert doc["scipy"] == []


def test_closed_stdout_exits_141_without_an_error_line(tmp_path):
    # the reader of stdout is gone before the command writes, as after
    # `| head -c 100`: no error line, no message from the flush at exit
    import matchctl

    cfg = write_cfg(tmp_path, "cp.cfg", CARTPOLE_FAST.format(out=tmp_path / "out"))
    src = os.path.dirname(os.path.dirname(matchctl.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.Popen([sys.executable, "-m", "matchctl.cli", "check-helmholtz",
                             "--config", cfg, "--json"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=300), err) == (141, b"")
