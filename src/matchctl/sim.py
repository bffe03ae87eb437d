"""Fixed-step trajectory integration, energy-drift measurement and CSV output.

Classical fourth-order Runge-Kutta at fixed step: reproducibility of golden
trajectories matters more than adaptive speed at this scale.  A march records
its states as floats in one ``array('d')`` and hands them back as a view of
it.  Observer columns (controls, shaped energy) are evaluated at every
recorded step, ``OBSERVE_BLOCK`` rows at a time, into columns allocated once,
so a trajectory keeps about 8 bytes per float of each row (times, states,
controls, energy) and the transient memory of observing it does not grow with
its length.  A CSV of ``CSV_FORK_ROWS`` rows or more (a trajectory of 4,096
steps or more) is formatted on two processes, this one and one forked child,
where the host gives two CPUs; its bytes are those of one process, and no
option chooses.
"""

from __future__ import annotations

import gc
import math
import os
import threading
from array import array
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

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
    Non-finite states always halt with a "nonfinite" event, and so does a
    step whose stage raises ValueError or OverflowError on a non-finite stage
    state; that step is not recorded.  Without
    observers the trajectory is the bare march: times, states and events.
    The states are a writable view of the march's float record, not a copy of
    it, so a march holds its 2n floats per row once.
    """
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    width = 2 * field_.n
    n_steps = int(round(t_end / dt))
    events: list = []
    if width == 4 and field_.gamma2 is not None:
        steps, accel = _rk4_pair, field_.gamma2
    else:
        steps, accel = _rk4_array, field_.floats
    rec = array("d", state0.q.tolist() + state0.qdot.tolist())
    try:
        steps(accel, rec, width, dt, range(n_steps), guard, events)
    except (ValueError, OverflowError):
        done = len(rec) // width - 1
        if not _stage_was_nonfinite(steps, accel, rec[-width:], width, dt, done):
            raise
        events.append(((done + 1) * dt, "nonfinite"))
    times, states = _march(rec, width, dt)
    return observe(Trajectory(dims=field_.dims, times=times, states=states, events=events),
                   control, energy)


def _stage_was_nonfinite(steps, accel, start, width: int, dt: float, step: int) -> bool:
    """Whether step ``step`` of a march from ``start``, which raised, raises
    again in a stage whose state is not finite (``math.sin(inf)`` is a
    ValueError, not a NaN).  The step is run once more with each stage's state
    looked at before ``accel`` reads it, so the march itself checks only the
    state at the end of each step."""
    stage_nonfinite = [False]

    def looked_at(*state):
        stage_nonfinite[0] = not np.isfinite(state).all()
        return accel(*state)

    try:
        steps(looked_at, start, width, dt, range(step, step + 1), None, [])
    except (ValueError, OverflowError):
        return stage_nonfinite[0]
    return False


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
    # a row that overflows or is not finite (the last row of a nonfinite
    # halt) reads inf or NaN, in silence: the drift check fails on it
    with np.errstate(over="ignore", invalid="ignore"):
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


def _rk4_pair(gamma2, rec: array, width: int, dt: float, steps: range, guard, events):
    """Scalar fast path for two-coordinate systems: the steps ``steps`` from
    the last state of ``rec``, each state appended to it as floats."""
    x, th, xd, thd = rec[-4:]
    half = 0.5 * dt
    sixth = dt / 6.0
    for i in steps:
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


def _rk4_array(accel, rec: array, width: int, dt: float, steps: range, guard, events):
    """Generic path: ``accel`` (an explicit field's ``floats``) on lists of
    Python floats, combined coordinate by coordinate as numpy's vector
    arithmetic combines them, so in its floats."""

    def axpy(x, h, y):
        return [a + h * b for a, b in zip(x, y)]

    n = width // 2
    q, qd = rec[-width:-n].tolist(), rec[-n:].tolist()
    for i in steps:
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
    with np.errstate(invalid="ignore"):     # inf - inf is the NaN documented
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
# Rows from which write_rows formats on two processes: a fork, exit and reap
# take about 2.3 ms, the formatting of about 1,200 rows.
CSV_FORK_ROWS = 8 * CSV_BLOCK


def write_rows(fh, names, cols) -> int:
    """Write a header of ``names`` and the rows of the float columns ``cols``
    to ``fh`` with 17 significant digits, ``CSV_BLOCK`` rows per ``%`` over
    their floats (``"%.17g" % v`` is ``f"{v:.17g}"``); returns the row count.

    From ``CSV_FORK_ROWS`` rows on, when ``fh`` is a seekable file with a
    descriptor, this process has no other thread and may run on two CPUs, the
    blocks are formatted on two processes: this one and one forked child take
    turns by the block, passing a token through two pipes, and each writes its
    blocks to the shared descriptor when it holds the token.  The bytes are
    those of the one-process loop (the rows are ASCII, each line ended by
    ``"\\n"``), and there is no option to choose."""
    rows = len(cols[0])
    row_fmt = ",".join(["%.17g"] * len(cols)) + "\n"

    def block_text(b: int) -> str:
        block = np.column_stack([col[b * CSV_BLOCK:(b + 1) * CSV_BLOCK] for col in cols])
        return (row_fmt * len(block)) % tuple(block.ravel().tolist())

    fh.write(",".join(names) + "\n")
    blocks = -(-rows // CSV_BLOCK)
    fd = _ring_descriptor(fh, rows)
    if fd is None:
        for b in range(blocks):
            fh.write(block_text(b))
    else:
        fh.flush()
        _write_blocks_on_two_processes(fd, block_text, blocks)
        fh.seek(0, os.SEEK_END)     # fh's position is behind the rows it did not write
    return rows


def _ring_descriptor(fh, rows: int) -> int | None:
    """The descriptor that `write_rows` shares with a forked child, or None
    where one process writes: too few rows, no ``fork``, one CPU, a second
    thread (whose locks a fork would copy held), or no seekable file."""
    if (rows < CSV_FORK_ROWS or not hasattr(os, "fork")
            or len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2
            or threading.active_count() != 1):
        return None
    try:
        return fh.fileno() if fh.seekable() else None
    except (AttributeError, OSError):   # io.UnsupportedOperation is an OSError
        return None


def _write_blocks_on_two_processes(fd: int, block_text, blocks: int) -> None:
    """Write ``block_text(b)`` to ``fd`` for b in range(blocks), in order: this
    process the even blocks, one forked child the odd ones.

    Each side closes the pipe ends it does not use, so a peer that has gone
    reads as end of file and the child cannot outlive a failed parent.  The
    child ends in ``os._exit`` and never returns into the caller; the parent
    reaps it in any case, and a child that failed is a RuntimeError."""
    parent_in, child_out = os.pipe()
    child_in, parent_out = os.pipe()
    pid = os.fork()
    if pid == 0:
        gc.disable()            # no finalizer of the parent's garbage runs twice
        code = 1
        try:
            os.close(parent_in)
            os.close(parent_out)
            _take_turns(fd, block_text, range(1, blocks, 2), blocks, child_in, child_out)
            code = 0
        finally:
            os._exit(code)
    try:
        os.close(child_in)
        os.close(child_out)
        _take_turns(fd, block_text, range(0, blocks, 2), blocks, parent_in, parent_out)
    finally:
        os.close(parent_in)
        os.close(parent_out)
        status = os.waitpid(pid, 0)[1]
    if status:
        raise RuntimeError(f"write_rows: the CSV writer child ended with exit status "
                           f"{os.waitstatus_to_exitcode(status)}")


def _take_turns(fd: int, block_text, mine: range, blocks: int, token_in: int,
                token_out: int) -> None:
    """Format each block of ``mine``, wait for the token (block 0 holds it
    already), write the block whole and pass the token on to the next block."""
    for b in mine:
        data = memoryview(block_text(b).encode("ascii"))
        if b and not os.read(token_in, 1):
            raise RuntimeError("write_rows: the other CSV writer process has gone")
        while data:
            data = data[os.write(fd, data):]
        if b + 1 < blocks:
            os.write(token_out, b"\0")


def write_csv(traj: Trajectory, destination) -> int:
    """Write the trajectory by `write_rows`; returns the row count.  Events
    are appended as trailing comment lines `# event,<t>,<kind>`."""
    with open(destination, "w", encoding="utf-8") as fh:
        rows = write_rows(fh, *_columns(traj))
        for (t, kind) in traj.events:
            fh.write(f"# event,{t:.17g},{kind}\n")
    return rows
