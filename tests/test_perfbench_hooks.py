"""The per-layer benchmark (``perfbench/run.py --trace 1``) patches matchctl at
names it looks up by string: the layer functions it wraps in spans, the
executor class it subclasses, and the curve builders and quadrature it
counts.  These tests fail when a refactor renames one of them, before the
benchmark does.  The last ones load every config the benchmark writes, so a
stricter config loader fails here first too, and run one pass of the verify
and design operations through the benchmark's output checks.
"""

import argparse
import importlib
import json
import math
from pathlib import Path

import pytest

import matchctl
from matchctl.cli import RunConfig, main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SWEEP_CFG = """
system = cartpole
gains.k = 35.0
sim.dt = 1e-3
sim.t_end = 0.2
sim.ic = 0.3, 0.0, 0.1, -0.5
grid.n = 9
sweep.k = 20, 35
out.dir = {out}
"""


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing"), importlib.import_module("run")


def test_spans_install_and_restore(perfbench, tmp_path, capsys):
    tracing, _ = perfbench
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG.format(out=tmp_path / "out"))
    tracer = tracing.Tracer()
    tracing.install_spans(tracer, matchctl)
    try:
        assert main(["sweep", "--config", str(cfg)]) == 0
    finally:
        assert tracer.restore() == []
    names = {sp.name for sp in tracer.spans}
    assert {"cli.config_load", "cli.sweep_combo", "control.closed_loop",
            "sim.integrate"} <= names


def test_call_counter_and_count_metrics(perfbench, tmp_path, capsys):
    tracing, run = perfbench
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG.format(out=tmp_path / "out"))
    counter = tracing.CallCounter(matchctl)
    with counter.counting():
        assert main(["sweep", "--config", str(cfg)]) == 0
    metrics = run.count_metrics(counter, matchctl.control, 1)
    assert set(metrics) == {f"{layer}.calls_per_op" for layer in run.LAYERS} | {
        "control.curve_builds", "control.quad_calls", "control.integrand_evals",
        "control.evals_per_quad", "control.integration_warnings"}
    assert metrics["cli.calls_per_op"] > 0 and metrics["sim.calls_per_op"] > 0
    assert metrics["control.curve_builds"] > 0


def test_probes_run_at_their_call_shapes(perfbench, tmp_path, monkeypatch):
    # one call per batch and one batch per probe: a smoke test of the direct
    # calls (such as ``_HCurve(A, span)``) the probes make into matchctl
    probes = importlib.import_module("probes")
    monkeypatch.setattr(probes, "BATCH_S", 0)
    monkeypatch.setattr(probes, "REPEATS", 1)
    out = probes.run_probes(matchctl, 0, tmp_path)
    assert len(out) == 11
    for name, (med, low) in out.items():
        assert math.isfinite(med) and math.isfinite(low) and 0 < low <= med, name


@pytest.mark.parametrize("workload", ["verify", "trajectory", "design"])
def test_workload_configs_load(perfbench, tmp_path, workload):
    # every key the benchmark writes is one the config loader knows
    workloads = importlib.import_module("workloads")
    ns = argparse.Namespace(tol=None, grid=None, seed=None, out=None)
    for seed in range(10):
        texts, _ = workloads.generate(workload, seed)
        workloads.write_configs(texts, tmp_path / str(seed))
        for name in texts:
            RunConfig.load(tmp_path / str(seed) / name, ns)


@pytest.mark.parametrize("workload", ["verify", "design"])
def test_workload_operations_pass_their_checks(perfbench, tmp_path, capsys, workload):
    # one pass at one seed, each operation checked as a benchmark run checks
    # it; trajectory is left out, as its one CSV check alone takes about 2 s
    workloads = importlib.import_module("workloads")
    texts, ops = workloads.generate(workload, 1)
    workloads.write_configs(texts, tmp_path)
    seen: dict = {}
    for op in ops:
        code = main(op.argv(tmp_path))
        doc = json.loads(capsys.readouterr().out)
        assert workloads.check(op, code, doc, seen).problems == [], op.label


def test_call_counts_repeat(perfbench, tmp_path, capsys):
    # after one warm pass, which marches and generates tapes once, two
    # counted passes of verify seed 1's operations and a sweep make the same
    # calls into every module: a per-layer count reads the code, not how
    # many runs came before it
    tracing, _ = perfbench
    workloads = importlib.import_module("workloads")
    texts, ops = workloads.generate("verify", 1)
    workloads.write_configs(texts, tmp_path)
    cfg = tmp_path / "counted-sweep.cfg"
    cfg.write_text(SWEEP_CFG.format(out=tmp_path / "out-sweep"))
    argvs = [op.argv(tmp_path) for op in ops] + [["sweep", "--config", str(cfg)]]

    def one_pass():
        codes = [main(argv) for argv in argvs]
        capsys.readouterr()
        return codes

    assert one_pass() == [0] * len(argvs)
    counts = []
    for _ in range(2):
        counter = tracing.CallCounter(matchctl)
        with counter.counting():
            one_pass()
        counts.append(counter.by_module())
    assert counts[0] == counts[1] and counts[0]["helmholtz"] > 0
