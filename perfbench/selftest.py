#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the root of a matchctl checkout:

    python3 perfbench/selftest.py

They take about three minutes: several workload passes run in full.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Span, Tracer, install_spans  # noqa: E402

MC = run.import_matchctl()


_WORKDIRS: set = set()


def runner_for(workload: str, seed: int, labels=None) -> run.Runner:
    r = run.Runner(MC, workload, seed)
    _WORKDIRS.add(r.workdir)
    if labels is not None:
        r.ops = [op for op in r.ops if op.label in labels]
    return r


def tearDownModule():
    for workdir in _WORKDIRS:
        shutil.rmtree(workdir, ignore_errors=True)


def attribute_snapshot() -> dict:
    """Every attribute of every matchctl module and of the classes in them."""
    snap = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "matchctl" or name.startswith("matchctl."):
            for attr, val in vars(mod).items():
                snap[(name, attr)] = val
                if isinstance(val, type) and val.__module__ == name:
                    for cattr, cval in vars(val).items():
                        snap[(name, attr, cattr)] = cval
    return snap


class ConfigTests(unittest.TestCase):
    def test_generation_is_deterministic(self):
        for w in wl.WORKLOADS:
            texts_a, ops_a = wl.generate(w, 7)
            texts_b, ops_b = wl.generate(w, 7)
            self.assertEqual(texts_a, texts_b)
            self.assertEqual(ops_a, ops_b)
            self.assertNotEqual(texts_a, wl.generate(w, 8)[0])

    def test_benchmark_json_matches_the_runner(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(wl.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         [(k, run.UNITS[k]) for k in run.END_TO_END])
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER.items()))


class SeedRangeTests(unittest.TestCase):
    def test_no_operation_fails(self):
        for w in wl.WORKLOADS:
            for seed in range(3):
                r = runner_for(w, seed)
                r.run_pass()
                self.assertEqual(r.failures, [], f"{w} seed {seed}")
                self.assertEqual(r.attempted, len(r.ops))


def cli_h_curve(k: float):
    """The h-curve the CLI's incline observers build, on their unclipped span."""
    from matchctl.lagrangian import ShapingParams, scalar_sigma_matrix
    p = MC.model.InclineParams(psi=0.3)
    sys_ = MC.model.incline_system(p)
    shaping = ShapingParams(tau=((MC.matching.new_tau_closed_form(sys_, k),),),
                            sigma=scalar_sigma_matrix(sys_, 1.0), rho=2.0)
    return MC.control._HCurve(MC.control.incline_A_field(p, shaping), (-1.1, 1.1))


class KnownDefectTests(unittest.TestCase):
    def test_pole_gains_warn_without_failing(self):
        from scipy.integrate import IntegrationWarning
        for k in wl.INCLINE_POLE_K:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", IntegrationWarning)
                cli_h_curve(k)
            self.assertGreater(len(caught), 0, k)

    @unittest.expectedFailure
    def test_h_curve_builds_at_a_gain_whose_node_hits_the_pole(self):
        # A quadrature node lands exactly on the pole of A(x) at this k, and
        # the sweep row errors with "float division by zero".
        cli_h_curve(4.298955178366427)


class CountTests(unittest.TestCase):
    def test_counts_repeat_exactly(self):
        # The cart-pole sweep runs in the pool threads, the trajectory in the
        # main thread; together they cover both profile hooks.
        for workload, labels in (("trajectory", None), ("design", {"sweep:cartpole"})):
            r = runner_for(workload, 3, labels)
            first, second = run.counting_pass(r), run.counting_pass(r)
            self.assertEqual(first, second, workload)
            self.assertEqual(r.failures, [])
            self.assertGreater(first["sim.calls_per_op"], 0)

    def test_incline_sweep_warnings_are_counted(self):
        r = runner_for("design", 0, {"sweep:incline"})
        counts = run.counting_pass(r)
        self.assertGreater(counts["control.integration_warnings"], 0)
        self.assertGreater(counts["control.quad_calls"], 4 * 800)


class TraceTests(unittest.TestCase):
    def traced(self, workload, labels=None):
        r = runner_for(workload, 2, labels)
        r.run_pass()
        before = attribute_snapshot()
        tracer = Tracer()
        install_spans(tracer, MC)
        self.assertNotEqual(attribute_snapshot(), before)
        try:
            r.run_pass(tracer)
        finally:
            self.assertEqual(tracer.restore(), [])
        after = attribute_snapshot()
        self.assertEqual(after.keys(), before.keys())
        changed = [k for k in before if after[k] is not before[k]]
        self.assertEqual(changed, [])
        self.assertEqual(r.failures, [])
        return tracer, run.span_metrics(tracer)

    def test_wrappers_removed_and_pool_spans_parented(self):
        tracer, m = self.traced("design", {"sweep:cartpole"})
        by_id = {sp.id: sp for sp in tracer.spans}
        (sweep,) = [sp for sp in tracer.spans if sp.name == "op"]
        combos = [sp for sp in tracer.spans if sp.name == "cli.sweep_combo"]
        self.assertEqual(len(combos), 6)
        for sp in combos:
            self.assertEqual(sp.op, sweep.id)
            self.assertEqual(by_id[sp.parent], sweep)
            self.assertNotEqual(sp.thread, sweep.thread)
        self.assertGreater(m["cli.sweep_overlap"], 0.0)

    def test_trajectory_attribution(self):
        tracer, m = self.traced("trajectory")
        wall = sum(sp.end - sp.start for sp in tracer.spans if sp.name == "op")
        spent = sum(sp.end - sp.start for sp in tracer.spans
                    if sp.name in ("sim.integrate", "sim.write_csv"))
        self.assertGreater(spent / wall, 0.5)
        self.assertEqual(m["sim.steps"], 100000)

    def test_design_attribution(self):
        tracer, m = self.traced("design")
        wall = sum(sp.end - sp.start for sp in tracer.spans if sp.name == "op")
        shares = {k: v for k, v in m.items() if k.endswith(".self_share")}
        self.assertEqual(max(shares, key=shares.get), "control.self_share")
        self.assertGreater(m["control.curve_build_s"], 0.5 * wall)

    def test_verify_fields_has_most_calls(self):
        counts = run.counting_pass(runner_for("verify", 1))
        per_op = {k: v for k, v in counts.items() if k.endswith(".calls_per_op")}
        self.assertEqual(max(per_op, key=per_op.get), "fields.calls_per_op")

    def test_self_time_subtracts_the_union_of_children(self):
        tracer = Tracer()
        tracer.spans = [Span(1, "op", None, 1, 0, 0.0, 10.0),
                        Span(2, "sim.integrate", 1, 1, 0, 1.0, 4.0),
                        Span(3, "cli.sweep_combo", 1, 1, 1, 3.0, 6.0),
                        Span(4, Tracer.WAIT, 1, 1, 1, 0.0, 3.0)]
        self.assertEqual(tracer.self_times()[1], 5.0)


class CommandLineTests(unittest.TestCase):
    def test_refuses_to_run_without_the_package(self):
        bare = run.WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        try:
            done = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                                   "verify", "--seed", "1", "--seconds", "1",
                                   "--trace", "0"], cwd=bare, capture_output=True,
                                  text=True, timeout=120)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
