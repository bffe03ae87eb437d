"""Host-speed correction for timings taken on a shared machine.

The host this benchmark was built on changed speed by up to 2x within a
second, and CPU time moved with wall time: instruction throughput was lost,
not time slices.  So every timed operation is scaled by how fast a fixed
reference workload ran around it and during it:

- a bracket: ``BRACKET_ITERS`` of the reference, timed before the first
  operation and after each one, with the tick signal blocked;
- ticks: ``TICK_ITERS`` of the reference from a ``SIGALRM`` handler every
  ``TICK_S`` while an operation runs, timed in thread CPU time so that a
  wait for the interpreter lock held by the sweep's pool threads is not
  counted.

An operation's slowdown is the summed measured reference time over the summed
nominal time of the samples since the previous bracket, that bracket
included.  Dividing its wall time by the slowdown gives "seconds at
reference speed".  The handler runs in the main thread, so no thread is
added.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from time import perf_counter, thread_time

import numpy as np

BRACKET_ITERS, BRACKET_NOMINAL_S = 2400, 0.011
TICK_ITERS, TICK_NOMINAL_S = 60, 0.0004
TICK_S = 0.02

_U = np.array([0.3, 0.7])


def _node(a, b):
    return a * b + 0.5


def reference_work(iters: int) -> None:
    """Fixed interpreter-bound work of the kind matchctl does: float
    arithmetic through small Python functions and small numpy calls."""
    acc = 0.0
    for _ in range(iters):
        for _ in range(40):
            acc = _node(acc * 0.5, 1.000001)
        acc += float(np.sin(_U * acc).sum())


class SpeedMeter:
    def __init__(self):
        self._samples: list[tuple[float, float]] = []     # (measured, nominal)

    def bracket(self) -> None:
        old = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            t0 = perf_counter()
            reference_work(BRACKET_ITERS)
            self._samples.append((perf_counter() - t0, BRACKET_NOMINAL_S))
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, old)

    def slowdown(self) -> float:
        """Slowdown since the previous bracket; call right after a bracket."""
        measured = sum(m for m, _ in self._samples)
        nominal = sum(n for _, n in self._samples)
        self._samples = self._samples[-1:]
        return measured / nominal

    def _tick(self, signum, frame) -> None:
        t0 = thread_time()
        reference_work(TICK_ITERS)
        self._samples.append((thread_time() - t0, TICK_NOMINAL_S))

    @contextmanager
    def ticking(self):
        """Sample the reference during operations, not only around them."""
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, old)
