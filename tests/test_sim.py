import math
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from matchctl import control as ctl
from matchctl.lagrangian import ExplicitSode
from matchctl.model import Dims, State
from matchctl.sim import (CSV_BLOCK, CSV_FORK_ROWS, OBSERVE_BLOCK, Trajectory, energy_drift,
                          integrate, observe, write_csv)


def harmonic() -> ExplicitSode:
    return ExplicitSode(1, lambda x, xd: [-1.0 * x])


def free() -> ExplicitSode:
    return ExplicitSode(2, lambda x, y, xd, yd: [0.0, 0.0], dims=Dims(1, 1))


def test_free_particle_exact():
    traj = integrate(free(), State(q=[0.0, 0.0], qdot=[1.0, 0.0]), dt=0.01, t_end=1.0)
    assert traj.q()[-1, 0] == pytest.approx(1.0, abs=1e-14)
    assert traj.q()[-1, 1] == 0.0
    assert len(traj.times) == 101


def test_harmonic_period_return():
    # one full period; compare against the closed form at the grid time
    # (the last step lands at round(2*pi/dt)*dt, not exactly 2*pi)
    traj = integrate(harmonic(), State(q=[1.0], qdot=[0.0]), dt=1e-3,
                     t_end=2.0 * math.pi)
    t_final = traj.times[-1]
    assert abs(traj.q()[-1, 0] - math.cos(t_final)) < 1e-9
    assert abs(traj.qdot()[-1, 0] + math.sin(t_final)) < 1e-9
    assert abs(traj.q()[-1, 0] - 1.0) < 1e-7


def test_rk4_fourth_order():
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        traj = integrate(harmonic(), State(q=[1.0], qdot=[0.0]), dt=dt, t_end=2.0)
        exact = math.cos(2.0)
        errs.append(abs(traj.q()[-1, 0] - exact))
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    assert 8.0 < r1 < 32.0
    assert 8.0 < r2 < 32.0


def test_energy_drift_fourth_order():
    # halving the step shrinks the drift about sixteenfold on a system whose
    # energy is analytic (no quadrature cache in the observer)
    from matchctl.lagrangian import uncontrolled_sode
    from matchctl.model import CartpoleParams, cartpole_system

    p = CartpoleParams()
    loop = uncontrolled_sode(cartpole_system(p)).to_explicit()

    def energy(times, Q, Qd):
        x = Q[:, 0]
        xd, sd = Qd[:, 0], Qd[:, 1]
        cx = np.cos(x)
        return 0.5 * (p.alpha * xd ** 2 + 2 * p.beta * cx * xd * sd
                      + p.gamma * sd ** 2) - p.d * np.cos(x)

    st = State(q=[0.5, 0.0], qdot=[0.2, 0.3])
    drifts = []
    for dt in (1e-2, 5e-3):
        traj = integrate(loop, st, dt=dt, t_end=2.0, energy=energy)
        drifts.append(energy_drift(traj))
    ratio = drifts[0] / drifts[1]
    assert 8.0 < ratio < 32.0


def test_determinism_bit_identical():
    a = integrate(harmonic(), State(q=[0.3], qdot=[0.7]), dt=1e-3, t_end=1.0)
    b = integrate(harmonic(), State(q=[0.3], qdot=[0.7]), dt=1e-3, t_end=1.0)
    assert np.array_equal(a.states, b.states)


def test_guard_event_halts():
    traj = integrate(free(), State(q=[0.0, 0.0], qdot=[1.0, 0.0]), dt=0.01, t_end=2.0,
                     guard=lambda q, qd: abs(q[0]) >= 0.5)
    assert traj.events and traj.events[0][1] == "domain_exit"
    assert traj.events[0][0] == pytest.approx(0.51, abs=0.02)
    assert len(traj.times) < 201


def test_nonfinite_event_halts():
    blow = ExplicitSode(1, lambda x, xd: [x * 1e8])
    with np.errstate(over="ignore", invalid="ignore"):
        traj = integrate(blow, State(q=[1.0], qdot=[0.0]), dt=0.1, t_end=10.0)
    assert traj.events and traj.events[0][1] == "nonfinite"


def test_fast_pair_path_matches_array_path():
    # a float body given as ``floats`` marches as the floats of ``gamma``
    def gamma(x, th, xd, thd):
        from matchctl.jets import sin
        return [-1.0 * sin(x), -0.5 * th]

    def floats(x, th, xd, thd):
        return -math.sin(x), -0.5 * th

    with_fast = ExplicitSode(2, gamma, floats, Dims(1, 1))
    without = ExplicitSode(2, gamma, dims=Dims(1, 1))
    st = State(q=[0.4, 0.8], qdot=[0.1, -0.3])
    a = integrate(with_fast, st, dt=1e-2, t_end=1.0)
    b = integrate(without, st, dt=1e-2, t_end=1.0)
    assert np.array_equal(a.states, b.states)


def test_fast_pair_path_matches_array_path_on_guard_exit():
    from matchctl.control import GainSelection, cartpole_closed_loop
    from matchctl.model import CartpoleParams

    loop = cartpole_closed_loop(CartpoleParams(), GainSelection(k=35.0))
    without = ExplicitSode(2, loop.gamma, dims=loop.dims)
    st = State(q=[0.3, 0.0], qdot=[0.0, 0.5])

    def guard(q, qd):
        return q[0] <= -0.25 and qd[1] != 0.0

    a = integrate(loop, st, dt=1e-3, t_end=5.0, guard=guard)
    b = integrate(without, st, dt=1e-3, t_end=5.0, guard=guard)
    assert a.events == b.events and a.events[0][1] == "domain_exit"
    assert len(a.times) < 5001
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)


def reference_rk4(accel, state0: State, dt: float, t_end: float, guard=None):
    """Fixed-step RK4 by its list formula: ``accel(q, qd)`` on lists of floats,
    combined coordinate by coordinate, with the halts of `integrate`.  Returns
    the states, one row per step, and the events."""
    def axpy(x, h, y):
        return [a + h * b for a, b in zip(x, y)]

    q, qd = state0.q.tolist(), state0.qdot.tolist()
    rows, events = [q + qd], []
    for i in range(int(round(t_end / dt))):
        a1 = accel(q, qd)
        q2, qd2 = axpy(q, 0.5 * dt, qd), axpy(qd, 0.5 * dt, a1)
        a2 = accel(q2, qd2)
        q3, qd3 = axpy(q, 0.5 * dt, qd2), axpy(qd, 0.5 * dt, a2)
        a3 = accel(q3, qd3)
        q4, qd4 = axpy(q, dt, qd3), axpy(qd, dt, a3)
        a4 = accel(q4, qd4)
        q = axpy(q, dt / 6.0, [a + 2 * b + 2 * c + d for a, b, c, d in zip(qd, qd2, qd3, qd4)])
        qd = axpy(qd, dt / 6.0, [a + 2 * b + 2 * c + d for a, b, c, d in zip(a1, a2, a3, a4)])
        rows.append(q + qd)
        t_now = (i + 1) * dt
        if not all(map(math.isfinite, q + qd)):
            events.append((t_now, "nonfinite"))
            break
        if guard is not None and guard(q, qd):
            events.append((t_now, "domain_exit"))
            break
    return np.array(rows), events


def list_accel(field_: ExplicitSode):
    """The acceleration source `integrate` marches ``field_`` on, on lists."""
    return lambda q, qd: list(field_.floats(*q, *qd))


def infinite_past(field_: ExplicitSode, jump: float) -> ExplicitSode:
    """``field_`` on the same source, with every acceleration infinite where
    the first coordinate is past ``jump``."""
    infinite, floats = [math.inf] * field_.n, field_.floats
    return ExplicitSode(field_.n, None, lambda *s: infinite if s[0] > jump else floats(*s),
                        field_.dims)


@pytest.fixture(scope="module")
def march_loops(reference_params):
    from conftest import sm_shaping
    from matchctl.lagrangian import controlled_implicit_sode

    cartpole = ctl.cartpole_closed_loop(reference_params, ctl.GainSelection(k=35.0))
    return {"harmonic": harmonic(),
            "cartpole_math": cartpole,      # floats: the body over math
            "cartpole_floats": ExplicitSode(2, cartpole.gamma, dims=cartpole.dims),  # from gamma
            "builtin_1x2_taped": controlled_implicit_sode(*sm_shaping(1, Dims(1, 2))).to_explicit(),
            "builtin_2x2_gamma": controlled_implicit_sode(*sm_shaping(1, Dims(2, 2))).to_explicit()}


MARCH_LOOPS = ["harmonic", "cartpole_math", "cartpole_floats", "builtin_1x2_taped",
               "builtin_2x2_gamma"]


def rising(n: int) -> State:
    return State(q=[0.1] + [0.0] * (n - 1), qdot=[1.0] + [0.0] * (n - 1))


@pytest.mark.parametrize("halt", ["domain_exit", "nonfinite"])
@pytest.mark.parametrize("system", MARCH_LOOPS)
def test_one_march_is_the_reference_rk4_for_every_n(march_loops, system, halt):
    # the first coordinate passes 0.25 at step 15 to 17 of 30
    field_, guard = march_loops[system], None
    if halt == "domain_exit":
        guard = lambda q, qd: q[0] > 0.25       # noqa: E731
    else:
        field_ = infinite_past(field_, 0.25)
    state0, dt, t_end = rising(field_.n), 1e-2, 0.3
    traj = integrate(field_, state0, dt, t_end, guard=guard)
    states, events = reference_rk4(list_accel(field_), state0, dt, t_end, guard)
    assert traj.events == events and [kind for _, kind in events] == [halt]
    assert 15 <= len(states) - 1 <= 17
    assert traj.states.tobytes() == states.tobytes()
    assert traj.times.tobytes() == (np.arange(len(states)) * dt).tobytes()


@pytest.mark.parametrize("system", MARCH_LOOPS)
def test_guard_gets_tuples_of_floats(march_loops, system):
    field_, seen = march_loops[system], []
    integrate(field_, rising(field_.n), 1e-2, 0.05, guard=lambda q, qd: seen.append((q, qd)))
    assert len(seen) == 5
    for q, qd in seen:
        assert type(q) is type(qd) is tuple and len(q) == len(qd) == field_.n
        assert {type(v) for v in q + qd} == {float}


def test_observer_columns():
    def energy(times, Q, Qd):
        return 0.5 * (Qd[:, 0] ** 2 + Q[:, 0] ** 2)

    def control(times, Q, Qd):
        return np.zeros((len(times), 1))

    traj = integrate(harmonic(), State(q=[1.0], qdot=[0.0]), dt=1e-3, t_end=1.0,
                     control=control, energy=energy)
    assert traj.energies.shape == traj.times.shape
    assert traj.controls.shape == (len(traj.times), 1)
    assert energy_drift(traj) < 1e-12


def test_one_march_observed_twice_is_integrate_twice():
    # observing a bare march gives integrate's columns bit for bit and leaves
    # the march as it was, so another pair of observers can read it
    def energy(scale):
        return lambda times, Q, Qd: scale * (Qd[:, 0] ** 2 + Q[:, 0] ** 2)

    def control(times, Q, Qd):
        return Q[:, 0] * Qd[:, 0]

    st = State(q=[1.0], qdot=[0.0])
    bare = integrate(harmonic(), st, dt=1e-3, t_end=1.0, guard=lambda q, qd: q[0] < 0.8)
    assert bare.controls is None and bare.energies is None and bare.events
    for scale in (0.5, 3.0):
        want = integrate(harmonic(), st, dt=1e-3, t_end=1.0, control=control,
                         energy=energy(scale), guard=lambda q, qd: q[0] < 0.8)
        got = observe(bare, control, energy(scale))
        assert got.events == want.events and got.events is not bare.events
        for name in ("times", "states", "controls", "energies"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert bare.controls is None and bare.energies is None


def test_energy_drift_trivial_and_empty():
    traj = Trajectory(dims=None, times=np.array([0.0]),
                      states=np.zeros((1, 2)), energies=np.array([2.0]))
    assert energy_drift(traj) == 0.0
    with pytest.raises(ValueError):
        energy_drift(Trajectory(dims=None, times=np.array([0.0]),
                                states=np.zeros((1, 2))))


def _drift_of_full_length_differences(E):
    """The drift as max |E - E(0)| over a full-length array of differences."""
    e0 = E[0]
    return float(np.abs(E - e0).max() / max(1.0, abs(e0)))


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("special", [math.nan, math.inf, -math.inf, -0.0])
@pytest.mark.parametrize("base", ["normal", "signed_zeros", "large"])
def test_energy_drift_is_the_full_length_formula_bit_for_bit(base, special, where):
    rng = np.random.default_rng(len(base))
    for n in (1, 2, 101):
        if base == "signed_zeros":
            E = np.where(rng.random(n) < 0.5, 0.0, -0.0)
        else:
            E = rng.normal(size=n) * (1e300 if base == "large" else 3.0) + 1.5
        E[{"first": 0, "middle": n // 2, "last": n - 1}[where]] = special
        traj = Trajectory(dims=None, times=np.zeros(n), states=np.zeros((n, 2)), energies=E)
        with np.errstate(invalid="ignore", over="ignore"):
            want = _drift_of_full_length_differences(E)
            got = energy_drift(traj)
        assert struct.pack("<d", got) == struct.pack("<d", want)


@pytest.fixture(scope="module")
def observed_loops(reference_params, incline_params):
    incline_gains = ctl.GainSelection(k=35.0, sigma=1.0, rho=2.0, c=6.0)
    return {"cartpole": ctl.cartpole_observed_loop(reference_params,
                                                   ctl.GainSelection(k=35.0), 0.8),
            "incline": ctl.incline_observed_loop(incline_params, incline_gains, (-1.1, 1.1))}


@pytest.mark.parametrize("rows", [0, 1, OBSERVE_BLOCK - 1, OBSERVE_BLOCK, OBSERVE_BLOCK + 1,
                                  2 * OBSERVE_BLOCK + 3])
@pytest.mark.parametrize("system", ["cartpole", "incline"])
def test_observe_in_blocks_is_one_whole_array_call(observed_loops, system, rows):
    # each observer's row i reads row i alone, so its columns taken block by
    # block are the bytes of one call on all rows, in the same shapes
    loop, control, energy = observed_loops[system]
    rng = np.random.default_rng(rows)
    states = np.column_stack([rng.uniform(-0.7, 0.7, rows), rng.uniform(-1.0, 1.0, rows),
                              rng.normal(size=rows), rng.normal(size=rows)])
    traj = Trajectory(dims=loop.dims, times=np.arange(rows) * 1e-3, states=states)
    got = observe(traj, control, energy)
    args = traj.times, traj.q(), traj.qdot()
    want_u = np.asarray(control(*args), dtype=float).reshape(rows, 1)
    want_e = np.asarray(energy(*args), dtype=float).reshape(-1)
    assert got.controls.shape == (rows, 1) and got.energies.shape == (rows,)
    assert got.controls.dtype == got.energies.dtype == np.float64
    assert got.controls.tobytes() == want_u.tobytes()
    assert got.energies.tobytes() == want_e.tobytes()
    assert np.isfinite(got.energies).all()


def test_march_and_observe_memory_does_not_grow_with_its_length(observed_loops):
    # a 50,000-step cart-pole march keeps one record of its states, and
    # observing it takes a transient of a few blocks above its output columns.
    # Tracing every float of the march would take seconds, so the guard starts
    # tracing after the last step: what integrate allocates from there on is
    # all it holds beyond the record, whose bytes are the states'.
    loop, control, energy = observed_loops["cartpole"]
    steps, dt = 50_000, 1e-4
    calls = [0]

    def guard(q, qd):
        calls[0] += 1
        if calls[0] == steps:
            tracemalloc.start()
        return False

    try:
        march = integrate(loop, State(q=[0.3, 0.0], qdot=[0.1, -3.0]), dt, steps * dt,
                          guard=guard)
        march_peak = tracemalloc.get_traced_memory()[1]
        assert tracemalloc.is_tracing() and len(march.times) == steps + 1
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        traj = observe(march, control, energy)
        drift = energy_drift(traj)
        observe_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    held = march.states.nbytes + march.times.nbytes
    assert march.states.nbytes + march_peak <= 1.25 * held
    assert march.states.flags.writeable and not march.states.flags.owndata
    columns = traj.controls.nbytes + traj.energies.nbytes
    assert observe_peak - columns < 256 * OBSERVE_BLOCK
    assert drift < 1e-6


def test_csv_empty(tmp_path):
    traj = Trajectory(dims=Dims(1, 1), times=np.zeros(0), states=np.zeros((0, 4)))
    dest = tmp_path / "empty.csv"
    assert write_csv(traj, dest) == 0
    lines = dest.read_text().splitlines()
    assert lines == ["t,x1,theta1,xdot1,thetadot1"]


def test_csv_roundtrip(tmp_path):
    times = np.array([0.0, 0.1, 0.2])
    states = np.array([[0.1, 0.2, 0.3, 0.4],
                       [1 / 3, math.pi, -2e-7, 1e17],
                       [0.5, 0.6, 0.7, 0.8]])
    controls = np.array([[1.0], [2.0], [1 / 7]])
    energies = np.array([5.0, -0.25, 2 / 3])
    traj = Trajectory(dims=Dims(1, 1), times=times, states=states,
                      controls=controls, energies=energies,
                      events=[(0.2, "domain_exit")])
    dest = tmp_path / "t.csv"
    assert write_csv(traj, dest) == 3
    lines = dest.read_text().splitlines()
    assert lines[0] == "t,x1,theta1,xdot1,thetadot1,u1,E"
    assert lines[-1].startswith("# event,")
    parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:4]])
    assert np.array_equal(parsed[:, 0], times)
    assert np.array_equal(parsed[:, 1:5], states)
    assert np.array_equal(parsed[:, 5], controls[:, 0])
    assert np.array_equal(parsed[:, 6], energies)


CSV_SPECIALS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e17, 1 / 3, -2e-7]


TWO_CPUS = hasattr(os, "fork") and len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) >= 2


def csv_table(rows):
    """A trajectory of ``rows`` random rows with special floats among them,
    and the text of its CSV from a per-value f"{v:.17g}" join."""
    table = np.random.default_rng(rows).normal(size=(rows, 7))
    specials = np.arange(0, table.size, 5)
    table.flat[specials] = [CSV_SPECIALS[i % len(CSV_SPECIALS)] for i in range(specials.size)]
    traj = Trajectory(dims=Dims(1, 1), times=table[:, 0].copy(), states=table[:, 1:5],
                      controls=table[:, 5:6], energies=table[:, 6].copy(),
                      events=[(0.5, "domain_exit")])
    expected = "t,x1,theta1,xdot1,thetadot1,u1,E\n" \
        + "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in table) \
        + "# event,0.5,domain_exit\n"
    return traj, expected


def patch_fork(monkeypatch, in_child=None, in_parent=None) -> list:
    """Make ``os.fork`` run ``in_child()`` in the child and ``in_parent()`` in
    the parent after forking; returns the list of forked pids."""
    fork, pids = os.fork, []

    def forked():
        pid = fork()
        if pid == 0 and in_child is not None:
            in_child()
        elif pid:
            pids.append(pid)
            if in_parent is not None:
                in_parent()
        return pid

    monkeypatch.setattr(os, "fork", forked)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("rows", [0, 1, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1,
                                  CSV_FORK_ROWS - 1, CSV_FORK_ROWS, CSV_FORK_ROWS + 1, 100_001])
def test_csv_matches_per_value_format(tmp_path, monkeypatch, rows):
    # the block formatting writes exactly what a per-value f"{v:.17g}" join
    # did, on this process alone, and the events follow the rows
    traj, expected = csv_table(rows)
    pids = patch_fork(monkeypatch)
    dest = tmp_path / "t.csv"
    assert write_csv(traj, dest) == rows
    assert dest.read_text() == expected
    assert pids == []


def harmonic_observers():
    return (lambda times, Q, Qd: np.column_stack([Qd[:, 0], times]),
            lambda times, Q, Qd: 0.5 * (Qd[:, 0] ** 2 + Q[:, 0] ** 2))


def integrate_to_csv(dest, steps, guard=None, field_=None):
    """A harmonic march of ``steps`` steps with two control columns and an
    energy, written to ``dest`` as it is marched."""
    control, energy = harmonic_observers()
    return integrate(field_ or harmonic(), State(q=[1.0], qdot=[0.0]), 1e-3, steps * 1e-3,
                     control=control, energy=energy, guard=guard, csv=dest)


def assert_only(tmp_path, *names):
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)


@pytest.mark.parametrize("steps", [1, CSV_BLOCK, CSV_FORK_ROWS - 2, CSV_FORK_ROWS - 1,
                                   OBSERVE_BLOCK, 2 * OBSERVE_BLOCK + 3])
def test_integrate_writes_the_csv_of_its_trajectory(tmp_path, monkeypatch, steps):
    # the CSV written while the march runs, by a forked child from
    # CSV_FORK_ROWS planned rows on, is write_csv's of the trajectory
    # integrate returns, whose floats are those of the march without a CSV
    pids = patch_fork(monkeypatch)
    traj = integrate_to_csv(tmp_path / "t.csv", steps)
    assert len(pids) == (steps + 1 >= CSV_FORK_ROWS and TWO_CPUS)
    assert_no_child_left()
    write_csv(traj, tmp_path / "one.csv")
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
    assert_only(tmp_path, "t.csv", "one.csv")
    control, energy = harmonic_observers()
    alone = integrate(harmonic(), State(q=[1.0], qdot=[0.0]), 1e-3, steps * 1e-3,
                      control=control, energy=energy)
    assert len(traj.times) == steps + 1
    for name in ("times", "states", "controls", "energies"):
        assert getattr(traj, name).tobytes() == getattr(alone, name).tobytes()


@pytest.mark.parametrize("halt", ["domain_exit", "nonfinite"])
def test_halt_event_lines_follow_the_rows(tmp_path, monkeypatch, halt):
    # a march planned over several blocks halts in its second: the rows end
    # there, the event line follows them, and the observer columns hold the
    # rows marched
    # xdot = -sin t passes 0.9 at t = 4.26, in the march's second block
    pids = patch_fork(monkeypatch)
    guard, field_ = None, None
    if halt == "domain_exit":
        guard = lambda q, qd: qd[0] > 0.9      # noqa: E731
    else:
        field_ = ExplicitSode(1, None, lambda x, xd: [math.inf if xd > 0.9 else -1.0 * x])
    traj = integrate_to_csv(tmp_path / "t.csv", 4 * OBSERVE_BLOCK, guard, field_)
    assert len(pids) == TWO_CPUS
    assert_no_child_left()
    assert [kind for _, kind in traj.events] == [halt]
    assert OBSERVE_BLOCK < len(traj.times) < 2 * OBSERVE_BLOCK
    assert len(traj.controls) == len(traj.energies) == len(traj.times)
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert len(lines) == 1 + len(traj.times) + 1
    assert lines[-1] == f"# event,{traj.events[0][0]:.17g},{halt}"
    assert lines[-2].startswith(f"{traj.times[-1]:.17g},")


needs_two_cpus = pytest.mark.skipif(not TWO_CPUS, reason="writes on one process")


@needs_two_cpus
@pytest.mark.parametrize("failure", ["write", "exit"], ids=["write", "exit"])
def test_failing_csv_child_raises_in_the_parent(tmp_path, monkeypatch, failure):
    # a child that cannot write its rows, or that writes them all and then
    # fails, is a RuntimeError naming it; the parent reaps it, and the CSV
    # is not left behind
    def in_child():
        if failure == "write":
            def refused(fd, data):
                raise OSError(28, "No space left on device")
            os.write = refused
        else:
            exit_ = os._exit
            os._exit = lambda code: exit_(3)

    pids = patch_fork(monkeypatch, in_child=in_child)
    with pytest.raises(RuntimeError, match=r"the writer child \(pid \d+\) ended with exit "
                                           f"status {1 if failure == 'write' else 3}$"):
        integrate_to_csv(tmp_path / "t.csv", 2 * OBSERVE_BLOCK)
    assert len(pids) == 1
    assert_no_child_left()
    assert_only(tmp_path)


@needs_two_cpus
def test_child_gone_mid_march_is_named_not_a_broken_pipe(tmp_path, monkeypatch):
    # the child ends before it reads a block: the parent's write to its pipe
    # fails, and that is the child's RuntimeError, not a BrokenPipeError
    pids = patch_fork(monkeypatch, in_child=lambda: os._exit(5))
    with pytest.raises(RuntimeError, match=r"the writer child \(pid \d+\) ended with exit "
                                           r"status 5$"):
        integrate_to_csv(tmp_path / "t.csv", 8 * OBSERVE_BLOCK)
    assert len(pids) == 1
    assert_no_child_left()
    assert_only(tmp_path)


@pytest.mark.parametrize("where", ["march", "observer"])
def test_parent_failing_mid_march_leaves_no_child(tmp_path, monkeypatch, where):
    # the march or an observer raises in the second block: the child is
    # stopped and reaped before the error propagates, and the CSV that was
    # there before is neither truncated nor replaced
    pids = patch_fork(monkeypatch)
    dest = tmp_path / "t.csv"
    dest.write_text("before\n")
    calls = [0]

    def guard(q, qd):
        calls[0] += 1
        if where == "march" and calls[0] == OBSERVE_BLOCK + 10:
            raise KeyError("march")
        return False

    def energy(times, Q, Qd):
        if where == "observer" and times[0] > 0.0:
            raise KeyError("observer")
        return Q[:, 0]

    with pytest.raises(KeyError, match=where):
        integrate(harmonic(), State(q=[1.0], qdot=[0.0]), 1e-3, 4 * OBSERVE_BLOCK * 1e-3,
                  energy=energy, guard=guard, csv=dest)
    assert len(pids) == TWO_CPUS
    assert_no_child_left()
    assert dest.read_text() == "before\n"
    assert_only(tmp_path, "t.csv")


def test_csv_with_a_second_thread_is_written_on_one_process(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("forked beside a second thread")

    steps = 2 * OBSERVE_BLOCK
    integrate_to_csv(tmp_path / "forked.csv", steps)
    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        traj = integrate_to_csv(tmp_path / "t.csv", steps)
        assert len(traj.times) == steps + 1
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "forked.csv").read_bytes()


def blowing_up(cos):
    """xdd = 0 up to x = 2.0025 and infinite past it, plus 0 ``cos(xd)``: from
    x(0) = 1 at unit speed and dt = 0.01, the second stage of step 101 is past
    the jump, and the velocity of its third stage is infinite."""
    return lambda x, xd: (math.inf if x > 2.0025 else 0.0) + 0.0 * cos(xd)


def two_coordinate_field(accel, given_floats: bool) -> ExplicitSode:
    """xdd = ``accel(x, xd)``, thdd = 0, as the given ``floats`` or as the
    floats that the default reads from ``gamma``."""
    def body(x, th, xd, thd):
        return accel(x, xd), 0.0

    return ExplicitSode(2, None, body, Dims(1, 1)) if given_floats else ExplicitSode(2, body)


@pytest.mark.parametrize("given_floats", [True, False])
def test_stage_raising_on_a_nonfinite_state_halts_nonfinite(given_floats):
    # math.cos(inf) raises where a NaN-returning cosine halts after the step:
    # the march halts at the same step, without recording it
    def nan_cos(v):
        return math.cos(v) if math.isfinite(v) else math.nan

    state0, dt = State(q=[1.0, 0.0], qdot=[1.0, 0.0]), 0.01
    want = integrate(two_coordinate_field(blowing_up(nan_cos), given_floats), state0, dt, 2.0)
    got = integrate(two_coordinate_field(blowing_up(math.cos), given_floats), state0, dt, 2.0)
    assert len(want.times) == 102 and np.isnan(want.states[-1]).any()
    assert got.events == want.events == [(len(got.times) * dt, "nonfinite")]
    assert got.states.tobytes() == want.states[:-1].tobytes()
    assert got.times.tobytes() == want.times[:-1].tobytes()


@pytest.mark.parametrize("given_floats", [True, False])
def test_stage_raising_on_a_finite_state_raises(given_floats):
    field_ = two_coordinate_field(lambda x, xd: math.exp(x), given_floats)
    with pytest.raises(OverflowError):
        integrate(field_, State(q=[800.0, 0.0], qdot=[0.0, 0.0]), 0.1, 1.0)
    field_ = two_coordinate_field(lambda x, xd: math.sqrt(x), given_floats)
    with pytest.raises(ValueError, match="math domain error"):
        integrate(field_, State(q=[1.0, 0.0], qdot=[-100.0, 0.0]), 0.1, 1.0)


def test_integrate_validates_args():
    with pytest.raises(ValueError):
        integrate(harmonic(), State(q=[1.0], qdot=[0.0]), dt=-1.0, t_end=1.0)
    with pytest.raises(ValueError):
        integrate(harmonic(), State(q=[1.0], qdot=[0.0]), dt=0.1, t_end=0.0)
    with pytest.raises(ValueError, match=r"t_end / dt = inf is not finite"):
        integrate(harmonic(), State(q=[1.0], qdot=[0.0]), dt=1e-300, t_end=1e300)
