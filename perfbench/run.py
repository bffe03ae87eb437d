#!/usr/bin/env python3
"""Benchmark of matchctl, end to end and per layer.

Run from the root of a matchctl checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

It imports ``src/matchctl`` from that checkout, writes the workload's configs
(made from the seed alone) under ``.perfbench/``, and runs the workload's
commands through ``matchctl.cli.main`` in this process, one after another: a
closed loop with one client.  ``MATCHCTL_THREADS`` is left as the caller set
it, so the sweep's default thread pool is what gets measured.  Every command's
output is checked (see workloads.py).

``--trace 0`` reports the end-to-end metrics: set-up time from fresh
processes, then the median over timed passes.  Timings are scaled to a
reference speed (speed.py), because the host's speed drifts.  ``--trace 1``
reports the per-layer metrics: untraced passes, traced passes with spans on
the layer boundaries, one counting pass, and the probes.  The last line of stdout is
the result object; the line before it is the full run record, which is also
written to ``.perfbench/``.  See NOTES.md for what each metric means.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from speed import SpeedMeter  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 5
MIN_PASSES = 3
LAYERS = ("cli", "model", "fields", "jets", "lagrangian", "helmholtz", "matching",
          "control", "sim")
SPAN_LAYERS = ("cli", "model", "lagrangian", "helmholtz", "matching", "control", "sim")
DIGITS_FLOOR = 1e-17

# Units of the pass metrics; the first four are BENCHMARK.json's end_to_end.
UNITS = {"setup_s": "s", "run_s": "s", "sim_steps_per_s": "1/s", "peak_rss_mb": "MB",
         "wall_run_s": "s", "slowdown": "ratio",
         "helmholtz_states_per_s": "1/s", "matching_points_per_s": "1/s",
         "sweep_combos_per_s": "1/s", "helmholtz_digits": "digits",
         "drift_digits": "digits"}
END_TO_END = ("setup_s", "run_s", "sim_steps_per_s", "peak_rss_mb")

PROBES = ("fields.field_vgh_us", "jets.closed_loop_jet_us", "lagrangian.el_covector_jet_us",
          "lagrangian.solve_accel_us", "lagrangian.generic_gamma_us", "control.gamma2_us",
          "sim.rk4_step_us", "control.curve_probe_ms", "helmholtz.implicit_probe_ms",
          "helmholtz.explicit_probe_ms", "sim.csv_row_us")
# BENCHMARK.json's per_layer, in order, with units.
PER_LAYER = {
    **{f"{layer}.calls_per_op": "count" for layer in LAYERS},
    "control.curve_builds": "count", "control.quad_calls": "count",
    "control.integrand_evals": "count", "control.evals_per_quad": "count",
    "control.integration_warnings": "count",
    "helmholtz.implicit_ms_per_state": "ms", "helmholtz.explicit_ms_per_state": "ms",
    "matching.grid_check_ms_per_point": "ms", "matching.tau_ode_s": "s",
    "lagrangian.solve_accel_span_us": "us", "control.curve_build_s": "s",
    "control.observer_s": "s", "sim.steps": "count", "sim.events": "count",
    "sim.rk4_us_per_step": "us", "sim.write_csv_us_per_row": "us", "sim.csv_bytes": "bytes",
    "cli.sweep_combo_s": "s", "cli.sweep_wait_s": "s", "cli.sweep_overlap": "fraction",
    "cli.config_load_ms": "ms", "model.build_ms": "ms", "model.validate_ms": "ms",
    **{f"{layer}.self_share": "fraction" for layer in SPAN_LAYERS},
    **{name: unit for probe in PROBES
       for name, unit in ((probe, probe.rsplit("_", 1)[1]),
                          (probe + ".min", probe.rsplit("_", 1)[1]))},
    "trace.overhead": "ratio",
    "helmholtz.states_per_s": "1/s", "matching.points_per_s": "1/s",
    "cli.sweep_combos_per_s": "1/s", "helmholtz.digits": "digits",
    "sim.drift_digits": "digits",
}


def package_dir() -> Path:
    pkg = SRC / "matchctl"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {pkg} not found; run from the root of a "
                         "matchctl checkout")
    return pkg


def import_matchctl():
    """The package under ``src/`` of the current directory, never another copy."""
    pkg = package_dir()
    sys.path.insert(0, str(SRC))
    import matchctl
    import matchctl.cli  # noqa: F401
    if Path(matchctl.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported matchctl from {matchctl.__file__}, "
                         f"not from {pkg}")
    return matchctl


def digits(worst: float) -> float:
    return -math.log10(max(worst, DIGITS_FLOOR))


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    vals = sorted(values)
    q1, med, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                   else (vals[0], vals[0], vals[0]))
    return {"value": statistics.median(vals), "n": len(vals), "q1": q1, "median": med,
            "q3": q3, "samples": values}


# ---------------------------------------------------------------------------
# set-up time, in fresh processes
# ---------------------------------------------------------------------------

def setup_child(workload: str, seed: int) -> None:
    t0 = perf_counter()
    import_matchctl()
    texts, _ = wl.generate(workload, seed)
    workdir = WORK / f"setup-{os.getpid()}"
    wl.write_configs(texts, workdir)
    elapsed = perf_counter() - t0
    for name in texts:
        (workdir / name).unlink()
    workdir.rmdir()
    print(repr(elapsed))


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds (at reference speed) to import matchctl (numpy, scipy) and write
    the configs, each in a fresh interpreter.  One untimed start first compiles
    the bytecode cache."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
            "--workload", workload, "--seed", str(seed)]
    times = []
    meter = SpeedMeter()
    meter.bracket()
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: set-up child failed:\n{done.stderr}")
        meter.bracket()
        slowdown = meter.slowdown()
        if i:
            times.append(float(done.stdout.strip().splitlines()[-1]) / slowdown)
    return times


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Runner:
    """Runs the workload's operations through ``matchctl.cli.main`` and checks
    each one's output."""

    def __init__(self, mc, workload: str, seed: int):
        self.mc = mc
        texts, self.ops = wl.generate(workload, seed)
        self.workdir = WORK / f"{workload}-{seed}"
        wl.write_configs(texts, self.workdir)
        self.attempted = 0
        self.failures: list[dict] = []
        self.notes: set[str] = set()
        self.seen: dict = {}
        self.meter = SpeedMeter()

    def run_op(self, op: wl.Operation, tracer=None) -> tuple[float, wl.Outcome]:
        argv = op.argv(self.workdir)
        out, err = io.StringIO(), io.StringIO()
        main = self.mc.cli.main
        with redirect_stdout(out), redirect_stderr(err):
            if tracer is None:
                t0 = perf_counter()
                code = main(argv)
                elapsed = perf_counter() - t0
            else:
                with tracer.span("op", label=op.label, command=op.command) as sp:
                    code = main(argv)
                elapsed = sp.end - sp.start
        try:
            doc = json.loads(out.getvalue())
        except ValueError:
            doc = None
        outcome = wl.check(op, code, doc, self.seen)
        self.attempted += 1
        if outcome.problems:
            self.failures.append({"op": op.label, "problems": outcome.problems[:5],
                                  "stderr": err.getvalue()[-2000:]})
        self.notes.update(outcome.notes)
        return elapsed, outcome

    def run_pass(self, tracer=None) -> dict:
        """One pass; returns its end-to-end metrics."""
        totals: dict[str, list[float]] = {}
        run_s = wall_s = 0.0
        worst_residual = worst_drift = None
        self.meter.bracket()
        for op in self.ops:
            elapsed, oc = self.run_op(op, tracer)
            self.meter.bracket()
            scaled = elapsed / self.meter.slowdown()
            wall_s += elapsed
            run_s += scaled
            t = totals.setdefault(op.command, [0.0, 0])
            t[0] += scaled
            t[1] += oc.units
            if oc.worst_residual is not None:
                worst_residual = max(worst_residual or 0.0, oc.worst_residual)
            if oc.worst_drift is not None:
                worst_drift = max(worst_drift or 0.0, oc.worst_drift)
        m = {"run_s": run_s, "wall_run_s": wall_s, "slowdown": wall_s / run_s}
        for name, cmd in (("helmholtz_states_per_s", "check-helmholtz"),
                          ("matching_points_per_s", "check-matching"),
                          ("sim_steps_per_s", "simulate"),
                          ("sweep_combos_per_s", "sweep")):
            if cmd in totals and totals[cmd][0] > 0:
                m[name] = totals[cmd][1] / totals[cmd][0]
        if worst_residual is not None:
            m["helmholtz_digits"] = digits(worst_residual)
        if worst_drift is not None:
            m["drift_digits"] = digits(worst_drift)
        return m


def timed_passes(runner: Runner, seconds: float, min_passes: int, tracer_factory=None):
    """Passes until ``seconds`` have gone by, at least ``min_passes``."""
    passes = []
    deadline = perf_counter() + seconds
    while len(passes) < min_passes or perf_counter() < deadline:
        if tracer_factory is None:
            passes.append(runner.run_pass())
        else:
            passes.append(tracer_factory(runner))
    return passes


def collect(passes: list[dict]) -> dict[str, dict]:
    names = sorted({k for p in passes for k in p})
    return {k: summary([p[k] for p in passes if k in p]) for k in names}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass.  A layer the pass does not use
    reports 0."""
    from tracing import CURVE, Tracer
    spans = tracer.spans
    by_id = {sp.id: sp for sp in spans}
    named: dict[str, list] = {}
    for sp in spans:
        named.setdefault(sp.name, []).append(sp)

    def dur(name):
        return sum(sp.end - sp.start for sp in named.get(name, ()))

    def attr(name, key):
        return sum(sp.attrs.get(key, 0) for sp in named.get(name, ()))

    def n(name):
        return len(named.get(name, ()))

    def under_curve(sp):
        while sp.parent is not None:
            sp = by_id[sp.parent]
            if sp.name == CURVE:
                return True
        return False

    ops = named.get("op", [])
    observers_in_integrate = sum(sp.end - sp.start for sp in named.get("control.observer", ())
                                 if by_id[sp.parent].name == "sim.integrate")
    steps = attr("sim.integrate", "steps")
    sweep_wall = sum(sp.end - sp.start for sp in ops if sp.attrs["command"] == "sweep")
    m = {
        "helmholtz.implicit_ms_per_state": 1e3 * _ratio(dur("helmholtz.implicit"),
                                                        n("helmholtz.implicit")),
        "helmholtz.explicit_ms_per_state": 1e3 * _ratio(dur("helmholtz.explicit"),
                                                        n("helmholtz.explicit")),
        "matching.grid_check_ms_per_point": 1e3 * _ratio(
            dur("matching.check_on_grid"), attr("matching.check_on_grid", "points")),
        "matching.tau_ode_s": dur("matching.tau_ode"),
        "lagrangian.solve_accel_span_us": 1e6 * _ratio(dur("lagrangian.solve_accel"),
                                                       n("lagrangian.solve_accel")),
        "control.curve_build_s": sum(sp.end - sp.start for sp in named.get(CURVE, ())
                                     if not under_curve(sp)),
        "control.observer_s": dur("control.observer"),
        "sim.steps": steps,
        "sim.events": attr("sim.integrate", "events"),
        "sim.rk4_us_per_step": 1e6 * _ratio(dur("sim.integrate") - observers_in_integrate,
                                            steps),
        "sim.write_csv_us_per_row": 1e6 * _ratio(dur("sim.write_csv"),
                                                 attr("sim.write_csv", "rows")),
        "sim.csv_bytes": attr("sim.write_csv", "bytes"),
        "cli.sweep_combo_s": _ratio(dur("cli.sweep_combo"), n("cli.sweep_combo")),
        "cli.sweep_wait_s": _ratio(dur(Tracer.WAIT), n(Tracer.WAIT)),
        "cli.sweep_overlap": _ratio(dur("cli.sweep_combo"), sweep_wall),
        "cli.config_load_ms": 1e3 * dur("cli.config_load"),
        "model.build_ms": 1e3 * dur("model.build"),
        "model.validate_ms": 1e3 * dur("model.validate"),
    }
    # Shares of thread-time: pool threads overlap, so the denominator is the
    # self time of every span, not the wall time.
    self_time = tracer.self_times()
    busy = {layer: 0.0 for layer in SPAN_LAYERS}
    for sp in spans:
        if sp.name != Tracer.WAIT:
            busy[sp.layer] += self_time[sp.id]
    total = sum(busy.values())
    for layer in SPAN_LAYERS:
        m[f"{layer}.self_share"] = _ratio(busy[layer], total)
    return m


def count_metrics(counter, ctl, n_ops: int) -> dict[str, float]:
    by_module = counter.by_module()
    by_code = counter.by_code()
    m = {f"{layer}.calls_per_op": by_module.get(layer, 0) / n_ops for layer in LAYERS}
    curve_codes = (vars(ctl)["_HCurve"].__init__.__code__,
                   vars(ctl)["cartpole_shaped_potential"].__code__,
                   vars(ctl)["incline_shaped_potential"].__code__)
    m["control.curve_builds"] = sum(by_code.get(c, 0) for c in curve_codes)
    m["control.quad_calls"] = counter.quad_calls
    m["control.integrand_evals"] = counter.integrand_evals
    m["control.evals_per_quad"] = _ratio(counter.integrand_evals, counter.quad_calls)
    m["control.integration_warnings"] = counter.integration_warnings
    return m


def counting_pass(runner: Runner) -> dict[str, float]:
    from tracing import CallCounter
    counter = CallCounter(runner.mc)
    with counter.counting():
        runner.run_pass()
    return count_metrics(counter, runner.mc.control, len(runner.ops))


# ---------------------------------------------------------------------------
# the run record
# ---------------------------------------------------------------------------

def git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine() -> dict:
    import numpy
    import scipy
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(),
            "matchctl_threads": os.environ.get("MATCHCTL_THREADS")}


def src_lines() -> int:
    """Total of ``wc -l src/matchctl/*.py``."""
    return sum(p.read_bytes().count(b"\n") for p in sorted((SRC / "matchctl").glob("*.py")))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------

def run(args) -> tuple[dict, dict]:
    package_dir()
    setup = measure_setup(args.workload, args.seed) if args.trace == 0 else None
    mc = import_matchctl()
    runner = Runner(mc, args.workload, args.seed)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "git_sha": git_sha(),
              "src_lines": src_lines(), "ops_per_pass": [op.label for op in runner.ops]}
    runner.run_pass()                                   # warm-up, checked, untimed

    if args.trace == 0:
        with runner.meter.ticking():
            passes = collect(timed_passes(runner, args.seconds, MIN_PASSES))
        metrics = {"setup_s": {**summary(setup), "unit": "s"},
                   **{k: {**v, "unit": UNITS[k]} for k, v in passes.items()},
                   "peak_rss_mb": {"value": peak_rss_mb(), "n": 1, "unit": "MB"}}
        reported = END_TO_END
    else:
        from probes import run_probes
        from tracing import Tracer, install_spans
        third = args.seconds / 3.0
        leftover: list[str] = []
        tracers = []

        def traced_pass(r: Runner) -> dict:
            tracer = Tracer()
            install_spans(tracer, mc)
            try:
                scaled = r.run_pass(tracer)
            finally:
                leftover.extend(tracer.restore())
            tracers.append(tracer)
            return {**span_metrics(tracer), "run_s": scaled["run_s"]}

        with runner.meter.ticking():
            untraced = collect(timed_passes(runner, third, 2))
            traced = collect(timed_passes(runner, third, 1, traced_pass))
        if leftover:
            runner.failures.append({"op": "trace", "problems": [f"still patched: {leftover}"]})
        WORK.mkdir(exist_ok=True)
        tracers[0].write(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
        counts = counting_pass(runner)
        probes = run_probes(mc, args.seed, runner.workdir)

        metrics = {k: v for k, v in traced.items() if k != "run_s"}
        for k, val in counts.items():
            metrics[k] = {"value": val, "n": 1}
        for k, (med, low) in probes.items():
            metrics[k] = {"value": med, "n": 1}
            metrics[k + ".min"] = {"value": low, "n": 1}
        metrics["trace.overhead"] = {
            "value": traced["run_s"]["value"] / untraced["run_s"]["value"],
            "n": traced["run_s"]["n"]}
        # The workload's own rates and accuracies, from the untraced passes;
        # 0 where the workload does not run the command.
        for name, key in (("helmholtz.states_per_s", "helmholtz_states_per_s"),
                          ("matching.points_per_s", "matching_points_per_s"),
                          ("cli.sweep_combos_per_s", "sweep_combos_per_s"),
                          ("helmholtz.digits", "helmholtz_digits"),
                          ("sim.drift_digits", "drift_digits")):
            metrics[name] = untraced.get(key, {"value": 0.0, "n": 0})
        metrics = {k: {**metrics[k], "unit": unit} for k, unit in PER_LAYER.items()}
        record["untraced"] = untraced
        reported = tuple(PER_LAYER)

    shutil.rmtree(runner.workdir)
    failed = len(runner.failures)
    record.update(attempted=runner.attempted, failed=failed,
                  error_ratio=failed / runner.attempted, failures=runner.failures,
                  notes=sorted(runner.notes), metrics=metrics)
    WORK.mkdir(exist_ok=True)
    with open(WORK / f"record-{args.workload}-{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=float)
    result = {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]}
                          for k in reported}}
    return record, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_child:
        setup_child(args.workload, args.seed)
        return 0
    record, result = run(args)
    print(json.dumps(record, default=float))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
