"""The per-layer benchmark (``perfbench/run.py --trace 1``) patches matchctl at
names it looks up by string: the layer functions it wraps in spans, the
sweep's one-worker executor, and the curve builders and quadrature it
counts.  These tests fail when a refactor renames one of them, before the
benchmark does.  The last one loads every config the benchmark writes, so a
stricter config loader fails here first too.
"""

import argparse
import importlib
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
    assert {"cli.config_load", "cli.sweep_combo", "cli.pool_wait",
            "control.closed_loop", "sim.integrate"} <= names


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
