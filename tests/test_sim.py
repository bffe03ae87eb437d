import math

import numpy as np
import pytest

from matchctl.lagrangian import ExplicitSode
from matchctl.model import Dims, State
from matchctl.sim import CSV_BLOCK, Trajectory, energy_drift, integrate, observe, write_csv


def harmonic() -> ExplicitSode:
    return ExplicitSode(1, lambda q, qd: [-1.0 * q[0]])


def free() -> ExplicitSode:
    return ExplicitSode(2, lambda q, qd: [0.0, 0.0], dims=Dims(1, 1))


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
    blow = ExplicitSode(1, lambda q, qd: [q[0] * 1e8])
    with np.errstate(over="ignore", invalid="ignore"):
        traj = integrate(blow, State(q=[1.0], qdot=[0.0]), dt=0.1, t_end=10.0)
    assert traj.events and traj.events[0][1] == "nonfinite"


def test_fast_pair_path_matches_array_path():
    def gamma(q, qd):
        from matchctl.jets import sin
        return [-1.0 * sin(q[0]), -0.5 * q[1]]

    def gamma2(x, th, xd, thd):
        return -math.sin(x), -0.5 * th

    with_fast = ExplicitSode(2, gamma, gamma2=gamma2, dims=Dims(1, 1))
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


@pytest.mark.parametrize("rows", [0, 1, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1])
def test_csv_matches_per_value_format(tmp_path, rows):
    # the block formatting writes exactly what a per-value f"{v:.17g}" join did
    table = np.random.default_rng(rows).normal(size=(rows, 7))
    specials = np.arange(0, table.size, 5)
    table.flat[specials] = [CSV_SPECIALS[i % len(CSV_SPECIALS)] for i in range(specials.size)]
    traj = Trajectory(dims=Dims(1, 1), times=table[:, 0].copy(), states=table[:, 1:5],
                      controls=table[:, 5:6], energies=table[:, 6].copy(),
                      events=[(0.5, "domain_exit")])
    expected = "t,x1,theta1,xdot1,thetadot1,u1,E\n" \
        + "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in table) \
        + "# event,0.5,domain_exit\n"
    dest = tmp_path / "t.csv"
    assert write_csv(traj, dest) == rows
    assert dest.read_text() == expected


def test_integrate_validates_args():
    with pytest.raises(ValueError):
        integrate(harmonic(), State(q=[1.0], qdot=[0.0]), dt=-1.0, t_end=1.0)
    with pytest.raises(ValueError):
        integrate(harmonic(), State(q=[1.0], qdot=[0.0]), dt=0.1, t_end=0.0)
