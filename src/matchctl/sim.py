"""Fixed-step trajectory integration, energy-drift measurement and CSV output.

Classical fourth-order Runge-Kutta at fixed step: reproducibility of golden
trajectories matters more than adaptive speed at this scale.  One march,
generated from the coordinate count n, records the states as floats in one
``array('d')``, of which the trajectory's states are a view.  `integrate`
observes each block of ``OBSERVE_BLOCK`` rows as soon as it is marched and,
given a CSV path, writes it too: where the host allows (see `_CsvFile`), a
child forked at the first block formats the blocks while this process marches
on.  The bytes are those of one process; no option chooses."""

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
              control: Callable | None = None, energy: Callable | None = None,
              guard: Callable | None = None, csv=None) -> Trajectory:
    """March the field with fixed-step RK4 from state0 for t_end seconds by
    `_rk4_march` on its ``floats``, in blocks of ``OBSERVE_BLOCK`` rows (each
    from the last state of the one before, so the floats are those of one
    march), observing each block as `observe` does as soon as it is marched
    and, given a path ``csv``, writing it there by `_CsvFile`.

    ``guard(q, qd) -> bool``, given the coordinates and velocities as tuples
    of floats, halts integration with a "domain_exit" event when true.
    Non-finite states halt with a "nonfinite" event, and so does a stage that
    raises ValueError or OverflowError on a non-finite state, whose step is
    not recorded.  Without observers the trajectory is the bare march.  Its
    states are a writable view of the march's float record."""
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    steps = t_end / dt
    if not math.isfinite(steps):
        raise ValueError(f"the step count t_end / dt = {steps!r} is not finite")
    n, accel, width, rows = field_.n, field_.floats, 2 * field_.n, int(round(steps)) + 1
    march, rec = _rk4_march(n), array("d", state0.q.tolist() + state0.qdot.tolist())
    out = Trajectory(dims=field_.dims, times=np.empty(0), states=np.empty((0, width)))
    sink, done = _CsvFile(csv, rows) if csv is not None else None, None
    try:
        for start in range(0, rows, OBSERVE_BLOCK):    # step i marches row i + 1
            march(accel, rec, dt, range(max(start - 1, 0), min(start + OBSERVE_BLOCK, rows) - 1),
                  guard, out.events)
            block = slice(start, len(rec) // width)
            times = np.arange(start, block.stop, dtype=float) * dt
            # a copy: a view of rec would stop it from growing
            states = np.frombuffer(rec[start * width:], dtype=float).reshape(-1, width)
            _observe_rows(out, block, rows, times, states, control, energy)
            if sink is not None:
                cols = [col[block] for col in (out.controls, out.energies) if col is not None]
                sink.write([times, states] + cols, None if start else _columns(out)[0])
            if out.events:
                break
        done = out.events
    finally:    # without events, the CSV is removed
        if sink is not None:
            sink.close(done)
    out.states = np.frombuffer(rec, dtype=float).reshape(-1, width)   # a view that keeps rec
    out.times = np.arange(len(out.states), dtype=float)
    out.times *= dt
    out.controls, out.energies = (None if c is None else c[:len(out.times)]  # the rows marched
                                  for c in (out.controls, out.energies))
    return out


@functools.cache
def _rk4_march(n: int) -> Callable:
    """``march(accel, rec, dt, steps, guard, events)``: the RK4 steps ``steps``
    from the last state of ``rec``, each appended to it as floats; ``accel``
    takes the 2n floats of a stage's state (coordinates, then velocities) and
    returns its n accelerations.  A step whose state is not finite halts with
    a "nonfinite" event, one that ``guard`` (given q and qd as tuples) refuses
    with a "domain_exit" event, both recorded; a stage whose ``accel`` raises
    ValueError or OverflowError (``math.sin(inf)`` does) halts unrecorded with
    "nonfinite" where its state is not finite, else the error propagates."""
    q, qd = [f"q{i}" for i in range(n)], [f"qd{i}" for i in range(n)]
    # the coordinates, velocities and accelerations of stages 1 to 4
    qs = [q] + [[f"{x}_{k}" for x in q] for k in (2, 3, 4)]
    vs = [qd] + [[f"{x}_{k}" for x in qd] for k in (2, 3, 4)]
    acc = [[f"a{i}_{k}" for i in range(n)] for k in (1, 2, 3, 4)]

    # stage k's state is not finite: x * 0.0 is +-0.0 where x is finite, else NaN
    nonfinite = [" + ".join(f"{x} * 0.0" for x in qs[k] + vs[k]) + " != 0.0" for k in range(4)]

    def halt(test, kind):
        return [f"if {test}:", f"    events.append(((i + 1) * dt, '{kind}'))", "    break"]

    lines = []
    for k in range(4):
        lines += ["try:", f"    {', '.join(acc[k])}, = accel({', '.join(qs[k] + vs[k])})",
                  "except (ValueError, OverflowError):",
                  *(f"    {line}" for line in halt(nonfinite[k], "nonfinite")),
                  "    raise"]
        if k < 3:
            h = "dt" if k == 2 else "half"
            lines += [f"{y} = {x} + {h} * {v}" for x, y, v in zip(q, qs[k + 1], vs[k])]
            lines += [f"{y} = {x} + {h} * {a}" for x, y, a in zip(qd, vs[k + 1], acc[k])]
    for x, (d1, d2, d3, d4) in zip(q + qd, [*zip(*vs), *zip(*acc)]):
        lines.append(f"{x} += sixth * ({d1} + 2.0 * {d2} + 2.0 * {d3} + {d4})")
    lines += [f"rec.extend(({', '.join(q + qd)},))", *halt(nonfinite[0], "nonfinite"),
              *halt(f"guard is not None and guard(({', '.join(q)},), ({', '.join(qd)},))",
                    "domain_exit")]
    body = "".join(f"        {line}\n" for line in lines)
    src = (f"def march(accel, rec, dt, steps, guard, events):\n"
           f"    {', '.join(q + qd)} = rec[-{2 * n}:]\n"
           f"    half = 0.5 * dt\n    sixth = dt / 6.0\n    for i in steps:\n{body}")
    return compiled(src, "march", f"<rk4 march {n}>")


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
    rows = len(out.times)
    for r in range(0, max(rows, 1), OBSERVE_BLOCK):    # one call on no rows gives n_u
        block = slice(r, r + OBSERVE_BLOCK)
        _observe_rows(out, block, rows, out.times[block], out.states[block], control, energy)
    return out


def _observe_rows(out: Trajectory, block: slice, rows: int, times: np.ndarray,
                  states: np.ndarray, control: Callable | None, energy: Callable | None) -> None:
    """Write rows ``block`` of the observer columns of ``out`` from the rows'
    times and states; the first call allocates each column for ``rows`` rows.
    A row that overflows or is not finite (the last row of a nonfinite halt)
    reads inf or NaN, in silence: the drift check fails on it."""
    args, size = (times, states[:, :out.n], states[:, out.n:]), len(times)
    with np.errstate(over="ignore", invalid="ignore"):
        if control is not None:
            cols = np.asarray(control(*args), dtype=float)
            if out.controls is None:
                out.controls = np.empty((rows, math.prod(cols.shape[1:])))
            out.controls[block] = cols.reshape(size, out.controls.shape[1])
        if energy is not None:
            if out.energies is None:
                out.energies = np.empty(rows)
            out.energies[block] = np.asarray(energy(*args), dtype=float).reshape(size)


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
    """The CSV header and columns: t, the states in their order, u1.. and E."""
    ns, ng = (traj.dims.n_shape, traj.dims.n_group) if traj.dims else (traj.n, 0)
    coords = [("x", i + 1) for i in range(ns)] + [("theta", a + 1) for a in range(ng)]
    names = ["t"] + [f"{c}{i}" for c, i in coords] + [f"{c}dot{i}" for c, i in coords]
    cols = [traj.times, *traj.states.T]
    if traj.controls is not None:
        names += [f"u{j + 1}" for j in range(traj.controls.shape[1])]
        cols += list(traj.controls.T)
    if traj.energies is not None:
        names.append("E")
        cols.append(traj.energies)
    return names, cols


CSV_BLOCK = 512     # rows formatted per string operation
# Planned rows from which `integrate` formats its CSV on a forked child: a
# fork, exit and reap take about 2.3 ms, the formatting of about 1,200 rows.
CSV_FORK_ROWS = 8 * CSV_BLOCK


def _block_text(block: np.ndarray) -> str:
    """The CSV lines of the float rows ``block`` with 17 significant digits,
    by one ``%`` over its floats (``"%.17g" % v`` is ``f"{v:.17g}"``)."""
    row_fmt = ",".join(["%.17g"] * block.shape[1]) + "\n"
    return (row_fmt * len(block)) % tuple(block.ravel().tolist())


def write_rows(fh, names, cols) -> int:
    """Write a header of ``names`` and the rows of the float columns ``cols``
    to ``fh``, ``CSV_BLOCK`` rows per `_block_text`; returns the row count."""
    rows = len(cols[0])
    fh.write(",".join(names) + "\n")
    for r in range(0, rows, CSV_BLOCK):
        fh.write(_block_text(np.column_stack([col[r:r + CSV_BLOCK] for col in cols])))
    return rows


def write_csv(traj: Trajectory, destination) -> int:
    """Write the trajectory by `write_rows`; returns the row count.  Events
    are appended as trailing comment lines `# event,<t>,<kind>`."""
    with open(destination, "w", encoding="utf-8") as fh:
        rows = write_rows(fh, *_columns(traj))
        fh.write(_event_lines(traj.events))
    return rows


def _event_lines(events: list) -> str:
    return "".join(f"# event,{t:.17g},{kind}\n" for t, kind in events)


class _CsvFile:
    """`write_csv`'s bytes, written block by block while `integrate` marches,
    under a temporary name that `close` renames over ``path`` or removes.

    From ``CSV_FORK_ROWS`` planned rows on, where a pipe can be made to hold
    one observer block (Linux), two CPUs are allowed and no other thread runs
    (a fork would copy its locks held), the first `write` forks a child after
    the header: it formats that block, then the float rows that each later
    `write` pipes to it; else `write` formats them here.  A child that fails
    is a RuntimeError naming it, never the BrokenPipeError of a write to its
    pipe."""

    def __init__(self, path, rows: int):
        self.path, self.part, self.rows, self.pid = path, f"{path}.{os.getpid()}.part", rows, None
        self.fd = os.open(self.part, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)

    def write(self, cols: list[np.ndarray], header: list[str] | None = None) -> None:
        """Append the rows of the float columns ``cols``, after the first call's ``header``."""
        table = np.column_stack(cols)
        if header is not None and self._forked(header, table):
            return
        if self.pid is None:
            return _write_table(self.fd, table)
        try:
            _write_all(self.pipe, memoryview(table).cast("B"))
        except BrokenPipeError:
            self._reap(check=True)
            raise RuntimeError("trajectory CSV: the writer child stopped reading") from None

    def _forked(self, header: list[str], table: np.ndarray) -> bool:
        """Write ``header``; whether a child was forked to format ``table`` and the rows piped."""
        _write_all(self.fd, (",".join(header) + "\n").encode("ascii"))
        width, (piped, self.pipe) = table.shape[1], os.pipe()
        try:    # room for a few blocks, so that the march seldom waits on the child
            import fcntl
            held = fcntl.fcntl(self.pipe, fcntl.F_SETPIPE_SZ, 1 << 20)     # Linux only
        except (ImportError, AttributeError, OSError):
            held = 0
        if not (held >= 8 * width * OBSERVE_BLOCK and self.rows >= CSV_FORK_ROWS
                and hasattr(os, "fork") and threading.active_count() == 1
                and len(os.sched_getaffinity(0)) >= 2):
            os.close(piped)
            os.close(self.pipe)
            return False
        self.pid = os.fork()
        if self.pid == 0:
            gc.disable()    # no finalizer of the parent's garbage runs twice
            try:
                os.close(self.pipe)     # the pipe ends when the parent closes its end
                _write_table(self.fd, table)
                with os.fdopen(piped, "rb") as fh:  # a read is short only at the end
                    while chunk := fh.read(8 * width * CSV_BLOCK):
                        _write_table(self.fd, np.frombuffer(chunk).reshape(-1, width))
                os._exit(0)
            finally:    # reached only on an error, as os._exit does not return
                os._exit(1)
        os.close(piped)
        return True

    def close(self, events: list | None = None) -> None:
        """Wait for the child, append the lines of ``events`` and rename the
        file over ``path``; without ``events``, kill the child and remove it."""
        renamed = False
        try:
            if self.pid is not None:
                if events is None:
                    os.kill(self.pid, 9)        # SIGKILL: its rows are not wanted
                self._reap(check=events is not None)
            if events is not None:
                _write_all(self.fd, _event_lines(events).encode("ascii"))
                os.replace(self.part, self.path)
                renamed = True
        finally:
            os.close(self.fd)
            if not renamed:
                os.unlink(self.part)

    def _reap(self, check: bool) -> None:
        """Close the pipe, which ends the child's input, and wait for the
        child; with ``check``, one that failed is a RuntimeError."""
        pid, self.pid = self.pid, None
        os.close(self.pipe)
        status = os.waitpid(pid, 0)[1]
        if check and status:
            raise RuntimeError(f"trajectory CSV: the writer child (pid {pid}) ended with "
                               f"exit status {os.waitstatus_to_exitcode(status)}")


def _write_table(fd: int, table: np.ndarray) -> None:
    """Write the float rows ``table``, ``CSV_BLOCK`` rows per `_block_text`."""
    for r in range(0, len(table), CSV_BLOCK):
        _write_all(fd, _block_text(table[r:r + CSV_BLOCK]).encode("ascii"))


def _write_all(fd: int, data: bytes) -> None:
    """Write all of ``data``: a signal can cut a write short."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]
