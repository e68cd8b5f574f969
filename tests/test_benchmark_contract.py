"""The program API that the benchmark under perfbench/ drives.

perfbench is imported, never changed: its workloads call cfg.metric(),
grid(), operators() and initial_data(), its tracer wraps every public
function plus MatrixField.eval, cli._run_verify_all and cli._ladder_error,
and digests each causal shadow through CausalShadow.intervals.  Its work
counters read two more prehyp names: the grid that
cauchy.solve_second_order's signature binds and the .values of its single
result give the RK4 steps of an evolution solve, and the calls of
greens.solve_driven count the driven marches (greens.driven_solves).  A
traced round and the set-up of each workload run here as the benchmark
runs them.
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


def traced_round(perfbench, tmp_path, name):
    """One round of the workload under the tracer: its checks and tracer."""
    tracer, workloads = perfbench
    workload = workloads.WORKLOADS[name](1, str(tmp_path))
    workload.setup(prehyp)
    checks = workloads.Checks()
    traced = tracer.Tracer("prehyp")
    traced.install()
    try:
        workload.round(prehyp, checks)
    finally:
        traced.uninstall()
    return checks, traced


def test_traced_curved_dirac_round(perfbench, tmp_path):
    tracer, _ = perfbench
    checks, traced = traced_round(perfbench, tmp_path, "curved_dirac")
    assert checks.attempted > 0 and checks.failures == []
    stats, _, _, digests = traced.totals()
    sweeps = stats["geometry.causal_shadow"][0]
    assert sweeps > 0 and len(digests["shadow"]) == sweeps
    assert tracer.layer_metrics(traced, 1.0)["geometry.causal_shadow.calls"] == sweeps
    # adjoint-check's S+ f and its dual pair, one march
    assert tracer.layer_metrics(traced, 1.0)["greens.driven_solves"] == 1


def test_traced_flat_ladder_round_sees_the_stencils(perfbench, tmp_path):
    # apply_operator calls grids.d_x and d_xx by name, so the tracer's
    # stencil layer counts its stencils; a march binds its own through
    # grids._stencil, which the layer does not see
    tracer, _ = perfbench
    checks, traced = traced_round(perfbench, tmp_path, "flat_ladder")
    assert checks.attempted > 0 and checks.failures == []
    assert tracer.layer_metrics(traced, 1.0)["grids.stencil.calls"] > 0
    # identities (i) and (ii) at three resolutions, one driven march each
    assert tracer.layer_metrics(traced, 1.0)["greens.driven_solves"] == 6


def test_traced_verify_all_flat_round_sees_the_batteries(perfbench, tmp_path):
    # the tracer replaces cli.run_* on the module; verify-all must run the
    # replacements, so its battery table cannot hold the functions of import
    tracer, _ = perfbench
    checks, traced = traced_round(perfbench, tmp_path, "verify_all_flat")
    assert checks.attempted > 0 and checks.failures == []
    assert tracer.layer_metrics(traced, 1.0)["cli.battery.busy_s"] > 0
    assert traced.totals()[0]["cli._ladder_error"][0] == 3
    # greens' two marches and adjoint-check's dual march
    assert tracer.layer_metrics(traced, 1.0)["greens.driven_solves"] == 3


@pytest.mark.parametrize("name", ["flat_ladder", "curved_dirac", "verify_all_flat"])
def test_workload_setup_runs(perfbench, tmp_path, name):
    _, workloads = perfbench
    workload = workloads.WORKLOADS[name](1, str(tmp_path / name))
    try:
        workload.setup(prehyp)
    finally:
        getattr(workload, "close", lambda: None)()
