"""Fixed-step trajectory integration, energy-drift measurement and CSV output.

Classical fourth-order Runge-Kutta at fixed step: reproducibility of golden
trajectories matters more than adaptive speed at this scale.  A march records
its states as floats in one ``array('d')`` and hands them back as a view of
it.  Observer columns (controls, shaped energy) are evaluated at every
recorded step, ``OBSERVE_BLOCK`` rows at a time, into columns allocated once,
so a trajectory keeps about 8 bytes per float of each row (times, states,
controls, energy) and the transient memory of observing it does not grow with
its length.
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

OBSERVE_BLOCK = 4096    # rows per observer call in `observe`, a power of two


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
    The states are a writable view of the march's float record, not a copy of
    it, so a march holds its 2n floats per row once.
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
    one march can be observed by several pairs of observers.

    An observer's row i must depend on row i of its inputs alone: each is
    called on blocks of ``OBSERVE_BLOCK`` rows, and its output is written into
    a column allocated once.  The block is a power of two, so every block
    starts on the lane alignment of the whole-array call and the last one
    ends on its tail, and numpy's vectorized kernels give the floats of one
    whole-array call.  Controls are (N, n_u), energies (N,), both float."""
    out = Trajectory(dims=traj.dims, times=traj.times, states=traj.states,
                     events=list(traj.events))
    times, Q, Qd = out.times, out.q(), out.qdot()
    rows = len(times)
    for r in range(0, max(rows, 1), OBSERVE_BLOCK):    # one call on no rows gives n_u
        block = slice(r, r + OBSERVE_BLOCK)
        args = times[block], Q[block], Qd[block]
        size = len(args[0])
        if control is not None:
            cols = np.asarray(control(*args), dtype=float)
            if out.controls is None:
                out.controls = np.empty((rows, math.prod(cols.shape[1:])))
            out.controls[block] = cols.reshape(size, out.controls.shape[1])
        if energy is not None:
            if out.energies is None:
                out.energies = np.empty(rows)
            out.energies[block] = np.asarray(energy(*args), dtype=float).reshape(size)
    return out


def _rk4_pair(gamma2, state0: State, dt: float, n_steps: int, guard, events):
    """Scalar fast path for two-coordinate systems: states are recorded as
    floats in one array of doubles, which the states view."""
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
    return _march(rec, 4, dt)


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
    return _march(rec, 2 * field_.n, dt)


def _march(rec: array, width: int, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Times and states of a march's record: the states are a view of ``rec``,
    which it keeps alive, and the times are i * dt, built in place."""
    states = np.frombuffer(rec, dtype=float).reshape(-1, width)
    times = np.arange(len(states), dtype=float)
    times *= dt
    return times, states


def energy_drift(traj: Trajectory) -> float:
    """max_t |E(t) - E(0)| / max(1, |E(0)|), from the extremes of E: rounding
    is monotone, so max |fl(E_i - e0)| is the larger of fl(max E - e0) and
    fl(e0 - min E), and no full-length temporary is made.  Any NaN, or an
    infinite E(0), gives NaN."""
    E = traj.energies
    if E is None or E.size == 0:
        raise ValueError("trajectory has no recorded energies")
    e0 = E[0]
    # abs: -0.0 - 0.0 is -0.0, where |E_i - e0| is 0.0
    return float(abs(np.maximum(E.max() - e0, e0 - E.min())) / max(1.0, abs(e0)))


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
