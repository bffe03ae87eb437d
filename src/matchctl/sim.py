"""Fixed-step trajectory integration, energy-drift measurement and CSV output.

Classical fourth-order Runge-Kutta at fixed step: reproducibility of golden
trajectories matters more than adaptive speed at this scale.  Observer
columns (controls, shaped energy) are evaluated at every recorded step.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .jets import value_of
from .lagrangian import ExplicitSode
from .model import Dims, State

__all__ = ["Trajectory", "integrate", "observe", "energy_drift", "write_rows", "write_csv"]


@dataclass
class Trajectory:
    dims: Dims | None
    times: np.ndarray
    states: np.ndarray                  # (N, 2n): coordinates then velocities
    controls: np.ndarray | None = None  # (N, n_u)
    energies: np.ndarray | None = None  # (N,)
    events: list = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.states.shape[1] // 2 if self.states.ndim == 2 else 0

    def q(self) -> np.ndarray:
        return self.states[:, : self.n]

    def qdot(self) -> np.ndarray:
        return self.states[:, self.n:]


def integrate(field_: ExplicitSode, state0: State, dt: float, t_end: float,
              control: Callable | None = None,
              energy: Callable | None = None,
              guard: Callable | None = None) -> Trajectory:
    """March the field with fixed-step RK4 from state0 for t_end seconds, then
    `observe` the march.

    ``guard(q, qdot) -> bool`` halts integration with a "domain_exit" event
    when true; it receives the coordinates and velocities as sequences of
    floats, tuples on the two-coordinate fast path and lists otherwise.
    Non-finite states always halt with a "nonfinite" event.  Without
    observers the trajectory is the bare march: times, states and events.
    """
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    n = field_.n
    n_steps = int(round(t_end / dt))
    events: list = []

    if n == 2 and field_.gamma2 is not None:
        times, states = _rk4_pair(field_.gamma2, state0, dt, n_steps, guard, events)
    else:
        times, states = _rk4_array(field_, state0, dt, n_steps, guard, events)
    return observe(Trajectory(dims=field_.dims, times=times, states=states, events=events),
                   control, energy)


def observe(traj: Trajectory, control: Callable | None = None,
            energy: Callable | None = None) -> Trajectory:
    """A trajectory on the times, states and events of ``traj`` with the
    columns of ``control`` and ``energy``, vectorized observers (times, Q, Qd)
    -> columns evaluated on the recorded samples.  ``traj`` is not changed, so
    one march can be observed by several pairs of observers."""
    out = Trajectory(dims=traj.dims, times=traj.times, states=traj.states,
                     events=list(traj.events))
    times, Q, Qd = out.times, out.q(), out.qdot()
    if control is not None:
        cols = np.asarray(control(times, Q, Qd), dtype=float)
        out.controls = cols.reshape(len(times), -1)
    if energy is not None:
        out.energies = np.asarray(energy(times, Q, Qd), dtype=float).reshape(-1)
    return out


def _rk4_pair(gamma2, state0: State, dt: float, n_steps: int, guard, events):
    """Scalar fast path for two-coordinate systems: states are recorded as
    floats and copied into one array at the end."""
    x, th = float(state0.q[0]), float(state0.q[1])
    xd, thd = float(state0.qdot[0]), float(state0.qdot[1])
    half = 0.5 * dt
    sixth = dt / 6.0
    rec = array("d", (x, th, xd, thd))
    for i in range(n_steps):
        a1, b1 = gamma2(x, th, xd, thd)
        x2 = x + half * xd; th2 = th + half * thd
        xd2 = xd + half * a1; thd2 = thd + half * b1
        a2, b2 = gamma2(x2, th2, xd2, thd2)
        x3 = x + half * xd2; th3 = th + half * thd2
        xd3 = xd + half * a2; thd3 = thd + half * b2
        a3, b3 = gamma2(x3, th3, xd3, thd3)
        x4 = x + dt * xd3; th4 = th + dt * thd3
        xd4 = xd + dt * a3; thd4 = thd + dt * b3
        a4, b4 = gamma2(x4, th4, xd4, thd4)
        x += sixth * (xd + 2 * xd2 + 2 * xd3 + xd4)
        th += sixth * (thd + 2 * thd2 + 2 * thd3 + thd4)
        xd += sixth * (a1 + 2 * a2 + 2 * a3 + a4)
        thd += sixth * (b1 + 2 * b2 + 2 * b3 + b4)
        rec.extend((x, th, xd, thd))
        t_now = (i + 1) * dt
        if not (math.isfinite(x) and math.isfinite(th)
                and math.isfinite(xd) and math.isfinite(thd)):
            events.append((t_now, "nonfinite"))
            break
        if guard is not None and guard((x, th), (xd, thd)):
            events.append((t_now, "domain_exit"))
            break
    states = np.frombuffer(rec, dtype=float).reshape(-1, 4).copy()
    return np.arange(len(states)) * dt, states


def _rk4_array(field_: ExplicitSode, state0: State, dt: float, n_steps: int,
               guard, events):
    """Generic path: ``gamma`` on lists of Python floats, combined coordinate
    by coordinate as numpy's vector arithmetic combines them, so in its floats."""
    def accel(q, qd):
        return [value_of(v) for v in field_.gamma(q, qd)]

    def axpy(x, h, y):
        return [a + h * b for a, b in zip(x, y)]

    q, qd = state0.q.tolist(), state0.qdot.tolist()
    rec = array("d", q + qd)
    for i in range(n_steps):
        a1 = accel(q, qd)
        q2, qd2 = axpy(q, 0.5 * dt, qd), axpy(qd, 0.5 * dt, a1)
        a2 = accel(q2, qd2)
        q3, qd3 = axpy(q, 0.5 * dt, qd2), axpy(qd, 0.5 * dt, a2)
        a3 = accel(q3, qd3)
        q4, qd4 = axpy(q, dt, qd3), axpy(qd, dt, a3)
        a4 = accel(q4, qd4)
        q = axpy(q, dt / 6.0, [a + 2 * b + 2 * c + d for a, b, c, d in zip(qd, qd2, qd3, qd4)])
        qd = axpy(qd, dt / 6.0, [a + 2 * b + 2 * c + d for a, b, c, d in zip(a1, a2, a3, a4)])
        rec.extend(q + qd)
        t_now = (i + 1) * dt
        if not all(map(math.isfinite, q + qd)):
            events.append((t_now, "nonfinite"))
            break
        if guard is not None and guard(q, qd):
            events.append((t_now, "domain_exit"))
            break
    states = np.frombuffer(rec, dtype=float).reshape(-1, 2 * field_.n).copy()
    return np.arange(len(states)) * dt, states


def energy_drift(traj: Trajectory) -> float:
    """max_t |E(t) - E(0)| / max(1, |E(0)|)."""
    if traj.energies is None or traj.energies.size == 0:
        raise ValueError("trajectory has no recorded energies")
    e0 = traj.energies[0]
    return float(np.abs(traj.energies - e0).max() / max(1.0, abs(e0)))


def _columns(traj: Trajectory) -> tuple[list[str], list[np.ndarray]]:
    n = traj.n
    if traj.dims is not None:
        ns, ng = traj.dims.n_shape, traj.dims.n_group
    else:
        ns, ng = n, 0
    names = ["t"]
    cols = [traj.times]
    Q, Qd = traj.q(), traj.qdot()
    for i in range(ns):
        names.append(f"x{i + 1}")
        cols.append(Q[:, i])
    for a in range(ng):
        names.append(f"theta{a + 1}")
        cols.append(Q[:, ns + a])
    for i in range(ns):
        names.append(f"xdot{i + 1}")
        cols.append(Qd[:, i])
    for a in range(ng):
        names.append(f"thetadot{a + 1}")
        cols.append(Qd[:, ns + a])
    if traj.controls is not None:
        for j in range(traj.controls.shape[1]):
            names.append(f"u{j + 1}")
            cols.append(traj.controls[:, j])
    if traj.energies is not None:
        names.append("E")
        cols.append(traj.energies)
    return names, cols


CSV_BLOCK = 512     # rows formatted per string operation in write_rows


def write_rows(fh, names, cols) -> int:
    """Write a header of ``names`` and the rows of the float columns ``cols``
    to ``fh`` with 17 significant digits, ``CSV_BLOCK`` rows per ``%`` over
    their floats (``"%.17g" % v`` is ``f"{v:.17g}"``); returns the row count."""
    rows = len(cols[0])
    row_fmt = ",".join(["%.17g"] * len(cols)) + "\n"
    fh.write(",".join(names) + "\n")
    for r in range(0, rows, CSV_BLOCK):
        block = np.column_stack([col[r:r + CSV_BLOCK] for col in cols])
        fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))
    return rows


def write_csv(traj: Trajectory, destination) -> int:
    """Write the trajectory by `write_rows`; returns the row count.  Events
    are appended as trailing comment lines `# event,<t>,<kind>`."""
    with open(destination, "w", encoding="utf-8") as fh:
        rows = write_rows(fh, *_columns(traj))
        for (t, kind) in traj.events:
            fh.write(f"# event,{t:.17g},{kind}\n")
    return rows
