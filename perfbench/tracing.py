"""Outside-in tracing and call counting for matchctl.

Nothing here edits the program.  Spans come from wrappers installed on module
and class attributes at the name the caller looks up (``matchctl.sim.write_csv``
for ``cli``'s ``simmod.write_csv(...)``, ``matchctl.control.quad`` for the
curve builders, ``matchctl.cli.validate_system`` for the name ``cli`` imported)
and removed afterwards.  Counts come from a separate pass under
``sys.setprofile``/``threading.setprofile``.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import count
from time import perf_counter


@dataclass(slots=True)
class Span:
    id: int
    name: str                   # "<layer>.<what>", or "op" for one CLI call
    parent: int | None
    op: int                     # id of the operation's root span
    thread: int
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return "cli" if self.name == "op" else self.name.split(".", 1)[0]

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent, "op": self.op,
                "thread": self.thread, "start": self.start, "end": self.end,
                "attrs": self.attrs}


class Tracer:
    """Spans kept in memory; each thread nests its own stack of open spans."""

    WAIT = "cli.pool_wait"      # waiting, not work: left out of self time

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = count(1)
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def _new(self, name: str, attrs: dict) -> Span:
        parent = self.current()
        sid = next(self._ids)
        return Span(id=sid, name=name, parent=parent.id if parent else None,
                    op=parent.op if parent else sid, thread=threading.get_ident(),
                    attrs=attrs)

    @contextmanager
    def span(self, name: str, **attrs):
        sp = self._new(name, attrs)
        stack = self._stack()
        stack.append(sp)
        sp.start = perf_counter()
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            stack.pop()
            self.spans.append(sp)

    def record(self, name: str, start: float, end: float, **attrs) -> None:
        sp = self._new(name, attrs)
        sp.start, sp.end = start, end
        self.spans.append(sp)

    @contextmanager
    def adopt(self, parent: Span | None):
        """Parent this thread's spans to a span opened in another thread."""
        stack = self._stack()
        if parent is not None:
            stack.append(parent)
        try:
            yield
        finally:
            if parent is not None:
                stack.pop()

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a callable that opens span ``name``.

        ``before(args, kwargs) -> (args, kwargs)`` may substitute arguments;
        ``after(span, args, kwargs, result)`` adds attributes once it returns.
        """
        raw = vars(owner)[attr]
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            with tracer.span(name) as sp:
                result = fn(*args, **kwargs)
            if after is not None:
                after(sp, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", attr)
        wrapper.__wrapped__ = fn
        self.patch(owner, attr, staticmethod(wrapper) if isinstance(raw, staticmethod)
                   else wrapper)

    def patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> list[str]:
        """Put every patched attribute back; returns any left patched."""
        undone = self._patches[::-1]
        self._patches.clear()
        for owner, attr, raw in undone:
            setattr(owner, attr, raw)
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, raw in undone if vars(owner).get(attr) is not raw]

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span duration minus the union of its children's intervals."""
        children: dict[int, list[Span]] = {}
        for sp in self.spans:
            if sp.parent is not None and sp.name != self.WAIT:
                children.setdefault(sp.parent, []).append(sp)
        out = {}
        for sp in self.spans:
            covered, edge = 0.0, sp.start
            for ch in sorted(children.get(sp.id, ()), key=lambda s: s.start):
                lo, hi = max(ch.start, edge), min(ch.end, sp.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out[sp.id] = sp.end - sp.start - covered
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp.to_dict()) + "\n")


# ---------------------------------------------------------------------------
# the spans of the traced run
# ---------------------------------------------------------------------------

CURVE = "control.curve"


def install_spans(tracer: Tracer, mc) -> None:
    """Wrap the layer boundaries of the imported package ``mc``.

    The observers ``cli`` passes to ``sim.integrate`` are wrapped per call, and
    the sweep's thread pool is swapped for one that parents each combination
    to its sweep operation and records how long it waited for a worker.
    """
    cli, ctl, lg, hh, mt, model, sim = (mc.cli, mc.control, mc.lagrangian, mc.helmholtz,
                                        mc.matching, mc.model, mc.sim)
    tracer.wrap(cli.RunConfig, "load", "cli.config_load")
    tracer.wrap(cli, "_sweep_one", "cli.sweep_combo")
    for owner in (cli, ctl):
        for attr in ("cartpole_system", "incline_system", "synthetic_sm_system"):
            if attr in vars(owner):
                tracer.wrap(owner, attr, "model.build")
    tracer.wrap(cli, "validate_system", "model.validate")
    tracer.wrap(lg, "solve_accel", "lagrangian.solve_accel")
    tracer.wrap(hh, "implicit_helmholtz_residuals", "helmholtz.implicit")
    tracer.wrap(hh, "explicit_helmholtz_residuals", "helmholtz.explicit")

    def grid_points(sp, args, kwargs, result):
        sp.attrs["points"] = len(args[3])

    tracer.wrap(mt, "check_on_grid", "matching.check_on_grid", after=grid_points)
    tracer.wrap(mt, "new_tau_ode_residual", "matching.tau_ode")
    tracer.wrap(mt, "integrate_new_tau", "matching.tau_ode")
    for attr in ("_HCurve", "cartpole_shaped_potential", "incline_shaped_potential"):
        tracer.wrap(ctl, attr, CURVE)
    for attr in ("cartpole_closed_loop", "incline_closed_loop"):
        tracer.wrap(ctl, attr, "control.closed_loop")
    tracer.wrap(ctl, "shaped_multipliers", "control.shaped_multipliers")

    def observed(fn, what):
        def observer(*args):
            with tracer.span("control.observer", what=what):
                return fn(*args)
        return observer

    def wrap_observers(args, kwargs):
        for key in ("control", "energy"):
            if kwargs.get(key) is not None:
                kwargs[key] = observed(kwargs[key], key)
        return args, kwargs

    def steps(sp, args, kwargs, traj):
        sp.attrs["steps"] = len(traj.times) - 1
        sp.attrs["events"] = len(traj.events)

    tracer.wrap(sim, "integrate", "sim.integrate", before=wrap_observers, after=steps)

    def csv_size(sp, args, kwargs, rows):
        sp.attrs["rows"] = rows
        sp.attrs["bytes"] = os.path.getsize(args[1])

    tracer.wrap(sim, "write_csv", "sim.write_csv", after=csv_size)

    class TracedPool(vars(cli)["ThreadPoolExecutor"]):
        def submit(self, fn, /, *args, **kwargs):
            parent = tracer.current()
            submitted = perf_counter()

            def run():
                with tracer.adopt(parent):
                    tracer.record(Tracer.WAIT, submitted, perf_counter())
                    return fn(*args, **kwargs)

            return super().submit(run)

    tracer.patch(cli, "ThreadPoolExecutor", TracedPool)


# ---------------------------------------------------------------------------
# the counting pass
# ---------------------------------------------------------------------------

class CallCounter:
    """Python-level calls by callee code object, in every thread, plus the
    quadrature calls, integrand evaluations and IntegrationWarnings of the
    curve builders.  Each thread counts into its own dict, so no update is
    lost to a thread switch."""

    def __init__(self, mc):
        self._mc = mc
        self._lock = threading.Lock()
        self._per_thread: list[dict] = []
        self.quad_calls = 0
        self.integrand_evals = 0
        self.integration_warnings = 0

    def _profiler(self):
        calls: dict = {}
        with self._lock:
            self._per_thread.append(calls)

        def prof(frame, event, arg):
            if event == "call":
                code = frame.f_code
                calls[code] = calls.get(code, 0) + 1
        return prof

    def _bootstrap(self, frame, event, arg):
        prof = self._profiler()
        sys.setprofile(prof)
        prof(frame, event, arg)

    def _quad(self, quad):
        def counted_quad(func, *args, **kwargs):
            evals = [0]

            def integrand(*a):
                evals[0] += 1
                return func(*a)

            try:
                return quad(integrand, *args, **kwargs)
            finally:
                with self._lock:
                    self.quad_calls += 1
                    self.integrand_evals += evals[0]
        return counted_quad

    def _showwarning(self, *args, **kwargs):
        with self._lock:
            self.integration_warnings += 1

    @contextmanager
    def counting(self):
        from scipy.integrate import IntegrationWarning
        ctl = self._mc.control
        quad = vars(ctl)["quad"]
        ctl.quad = self._quad(quad)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("always", IntegrationWarning)
                warnings.showwarning = self._showwarning
                threading.setprofile(self._bootstrap)
                sys.setprofile(self._profiler())
                try:
                    yield self
                finally:
                    sys.setprofile(None)
                    threading.setprofile(None)
        finally:
            ctl.quad = quad

    def by_code(self) -> dict:
        total: dict = {}
        for calls in self._per_thread:
            for code, n in calls.items():
                total[code] = total.get(code, 0) + n
        return total

    def by_module(self) -> dict[str, int]:
        """Calls into each ``matchctl`` module, keyed by module name."""
        pkg = os.path.dirname(os.path.abspath(self._mc.__file__))
        out: dict[str, int] = {}
        for code, n in self.by_code().items():
            head, tail = os.path.split(code.co_filename)
            if head == pkg and tail.endswith(".py"):
                out[tail[:-3]] = out.get(tail[:-3], 0) + n
        return out
