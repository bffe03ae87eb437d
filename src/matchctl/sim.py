"""Fixed-step trajectory integration, energy-drift measurement and CSV output.

Classical fourth-order Runge-Kutta at fixed step: reproducibility of golden
trajectories matters more than adaptive speed at this scale.  One march serves
every coordinate count n: straight-line code over 2n float locals, generated
from n and compiled once per n, which hands the guard tuples of floats.  It
records its states as floats in one ``array('d')`` and hands them back as a
view of it.  Observer columns (controls, shaped energy) are evaluated at every
recorded step, ``OBSERVE_BLOCK`` rows at a time, into columns allocated once,
so a trajectory keeps about 8 bytes per float of each row (times, states,
controls, energy) and the transient memory of observing it does not grow with
its length.  A CSV of ``CSV_FORK_ROWS`` rows or more (a trajectory of 4,096
steps or more) is formatted on two processes, this one and one forked child,
where the host gives two CPUs; its bytes are those of one process, and no
option chooses.
"""

from __future__ import annotations

import functools
import gc
import math
import os
import threading
from array import array
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .jets import compiled
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

    The march is `_rk4_march` for the field's n, on the field's ``floats``.
    ``guard(q, qd) -> bool`` halts integration with a "domain_exit" event when
    true; it receives the coordinates and velocities as tuples of floats.
    Non-finite states always halt with a "nonfinite" event, and so does a
    step whose stage raises ValueError or OverflowError on a non-finite stage
    state; that step is not recorded.  Without
    observers the trajectory is the bare march: times, states and events.
    The states are a writable view of the march's float record, not a copy of
    it, so a march holds its 2n floats per row once.
    """
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    steps = t_end / dt
    if not math.isfinite(steps):
        raise ValueError(f"the step count t_end / dt = {steps!r} is not finite")
    n, accel = field_.n, field_.floats
    march = _rk4_march(n)
    events: list = []
    rec = array("d", state0.q.tolist() + state0.qdot.tolist())
    try:
        march(accel, rec, dt, range(int(round(steps))), guard, events)
    except (ValueError, OverflowError):
        done = len(rec) // (2 * n) - 1
        if not _stage_was_nonfinite(march, accel, rec[-2 * n:], dt, done):
            raise
        events.append(((done + 1) * dt, "nonfinite"))
    states = np.frombuffer(rec, dtype=float).reshape(-1, 2 * n)   # a view that keeps rec
    times = np.arange(len(states), dtype=float)
    times *= dt
    return observe(Trajectory(dims=field_.dims, times=times, states=states, events=events),
                   control, energy)


@functools.cache
def _rk4_march(n: int) -> Callable:
    """``march(accel, rec, dt, steps, guard, events)``: the RK4 steps ``steps``
    from the last state of ``rec``, each state appended to it as floats, where
    ``accel`` takes the 2n floats of a stage's state (coordinates, then
    velocities) and returns its n accelerations.  A step whose state is not
    finite halts with a "nonfinite" event, and one that ``guard`` (given the
    coordinates and velocities as tuples) refuses with a "domain_exit" event;
    both are recorded.  Its source is generated from n alone, straight-line
    over 2n float locals, and compiled at the first call for each n."""
    q, qd = [f"q{i}" for i in range(n)], [f"qd{i}" for i in range(n)]
    # the coordinates, velocities and accelerations of stages 1 to 4
    qs = [q] + [[f"{x}_{k}" for x in q] for k in (2, 3, 4)]
    vs = [qd] + [[f"{x}_{k}" for x in qd] for k in (2, 3, 4)]
    acc = [[f"a{i}_{k}" for i in range(n)] for k in (1, 2, 3, 4)]
    lines = []
    for k in range(4):
        lines.append(f"{', '.join(acc[k])}, = accel({', '.join(qs[k] + vs[k])})")
        if k < 3:
            h = "dt" if k == 2 else "half"
            lines += [f"{y} = {x} + {h} * {v}" for x, y, v in zip(q, qs[k + 1], vs[k])]
            lines += [f"{y} = {x} + {h} * {a}" for x, y, a in zip(qd, vs[k + 1], acc[k])]
    for x, (d1, d2, d3, d4) in zip(q + qd, [*zip(*vs), *zip(*acc)]):
        lines.append(f"{x} += sixth * ({d1} + 2 * {d2} + 2 * {d3} + {d4})")
    finite = " and ".join(f"isfinite({x})" for x in q + qd)
    lines += [f"rec.extend(({', '.join(q + qd)},))",
              "t_now = (i + 1) * dt",
              f"if not ({finite}):",
              "    events.append((t_now, 'nonfinite'))",
              "    break",
              f"if guard is not None and guard(({', '.join(q)},), ({', '.join(qd)},)):",
              "    events.append((t_now, 'domain_exit'))",
              "    break"]
    body = "".join(f"        {line}\n" for line in lines)
    src = (f"def march(accel, rec, dt, steps, guard, events):\n"
           f"    {', '.join(q + qd)} = rec[-{2 * n}:]\n"
           f"    half = 0.5 * dt\n    sixth = dt / 6.0\n    for i in steps:\n{body}")
    return compiled(src, "march", f"<rk4 march {n}>", {"isfinite": math.isfinite})


def _stage_was_nonfinite(march, accel, start: array, dt: float, step: int) -> bool:
    """Whether step ``step`` of ``march`` from ``start``, which raised, raises
    again in a stage whose state is not finite (``math.sin(inf)`` is a
    ValueError, not a NaN).  The step is run once more with each stage's state
    looked at before ``accel`` reads it, so the march itself checks only the
    state at the end of each step."""
    stage_nonfinite = [False]

    def looked_at(*state):
        stage_nonfinite[0] = not np.isfinite(state).all()
        return accel(*state)

    try:
        march(looked_at, start, dt, range(step, step + 1), None, [])
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
