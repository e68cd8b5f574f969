"""The program API that the benchmark under perfbench/ drives.

perfbench is imported, never changed: its workloads call cfg.metric(),
grid(), operators() and initial_data(), its tracer wraps every public
function plus MatrixField.eval, cli._run_verify_all and cli._ladder_error,
and digests each causal shadow through CausalShadow.intervals.  A traced
curved_dirac round and the other workloads' set-up run here as the
benchmark runs them.
"""

import sys
from pathlib import Path

import pytest

import prehyp

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import tracer, workloads

    return tracer, workloads


def test_traced_curved_dirac_round(perfbench, tmp_path):
    tracer, workloads = perfbench
    workload = workloads.WORKLOADS["curved_dirac"](1, str(tmp_path))
    workload.setup(prehyp)
    checks = workloads.Checks()
    traced = tracer.Tracer("prehyp")
    traced.install()
    try:
        workload.round(prehyp, checks)
    finally:
        traced.uninstall()
    assert checks.attempted > 0 and checks.failures == []
    stats, _, _, digests = traced.totals()
    sweeps = stats["geometry.causal_shadow"][0]
    assert sweeps > 0 and len(digests["shadow"]) == sweeps
    assert tracer.layer_metrics(traced, 1.0)["geometry.causal_shadow.calls"] == sweeps


@pytest.mark.parametrize("name", ["flat_ladder", "verify_all_flat"])
def test_workload_setup_runs(perfbench, tmp_path, name):
    _, workloads = perfbench
    workload = workloads.WORKLOADS[name](1, str(tmp_path / name))
    try:
        workload.setup(prehyp)
    finally:
        getattr(workload, "close", lambda: None)()
