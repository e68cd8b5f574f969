"""Command line front end: scenario runs, convergence ladders and the
full verification battery.

    prehyp <subcommand> --config <path> [--out <dir>] [--seed <n>]

Subcommands: check-pair, solve, direct-vs-reduced, greens, adjoint-check,
beta, isometry, convergence <subcommand>, verify-all.  Each battery is one
row of _batteries(), which the subcommands, the convergence targets, the
report-field check and verify-all read; the driven ones take their test
sections from the scenario (source_section).  Every run writes a
deterministic report.json (plus CSV dumps when requested); wall-clock
timings go to a separate timings.json so reports stay byte-reproducible.

Exit codes: 0 all tolerances met, 1 configuration error, 2 tolerance
failure (in verify-all also a convergence rung the config cannot build),
operators that are not a complementary pair where a battery solves with
them, a solve that blew up or a coefficient that is not finite during a
run, 3 internal error (its traceback goes to error.txt in the output
directory).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
import time
import traceback
from typing import Dict, List, Optional

import numpy as np

from .bundle_ops import is_complementary_pair, symbol_invertibility
from .cauchy import PairCheckError, SolverBlowupError, solve_cauchy_plain, solve_first_order_direct
from .config import DIRAC_PRESETS, ConfigError, ScenarioConfig, load_config
from .expr import ExprEvalError
from .geometry import CauchyLine
from .greens import adjoint_pairing_check, greens_report
from .grids import squared_norm
from .qft_dirac import beta_sigma, data_space_isometry_check, dirac_current, hypersurface_independence

# per-subcommand tolerances at the configured resolution; convergence
# orders are gated separately
TOLERANCES = {
    "pair_min_det_margin": -1e-10,
    "solve_leak": 1e-7,
    "direct_vs_reduced": 5e-3,
    "greens_identity": 2e-2,
    "greens_leak": 1e-7,
    "adjoint_defect": 1e-3,
    "adjoint_mismatch_min": 1e-1,
    "beta_hermitian": 1e-12,
    "beta_drift": 1e-3,
    "isometry_mismatch": 1e-3,
    "min_order": 1.8,
    "order_floor": 1e-10,
}

N_RANDOM_COVECTORS = 200

# the documented report fields; writers reject anything else (each
# battery's result fields are in _batteries())
REPORT_FIELDS = {"subcommand", "seed", "scenario", "results", "passed", "failures"}


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (complex, np.complexfloating)):
        return [_jsonable(float(value.real)), _jsonable(float(value.imag))]
    if isinstance(value, (np.floating, np.integer)):
        return _jsonable(value.item())
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, float) and not math.isfinite(value):  # JSON has no NaN or inf
        return str(value)  # "nan", "inf" or "-inf"
    return value


def _within(value, low: float = -math.inf, high: float = math.inf, strict: bool = False) -> bool:
    """Every gate's predicate: value is finite and low <= value <= high
    (low < value when strict).  NaN and inf never pass."""
    v = float(value)
    return math.isfinite(v) and v <= high and (v > low if strict else v >= low)


def _gate(failures: List[str], label: str, value, low: float = -math.inf,
          high: float = math.inf, strict: bool = False) -> None:
    """Record a failure unless _within(value, low, high, strict)."""
    if not _within(value, low, high, strict):
        v = float(value)
        bound = f"<= {high:.1e}" if v > high or low == -math.inf else f"{'>' if strict else '>='} {low:.1e}"
        failures.append(f"{label} {v:.3e} not {bound}")


# ---------------------------------------------------------------------------
# subcommand bodies: each returns (results dict, failure strings)

def run_check_pair(cfg: ScenarioConfig, seed: int, nx: Optional[int] = None):
    scn = cfg.scenario(nx)
    metric, p, q = scn.metric, scn.p, scn.q
    pair = is_complementary_pair(p, q, metric)
    rng = np.random.default_rng(seed)
    chart = metric.chart
    # rows (t, x, xi_t, xi_x) drawn as rng.uniform would draw them one at a
    # time, and in that order; near-null covectors are skipped
    low = np.array([chart.t_min, chart.x_min, -1.0, -1.0])
    high = np.array([chart.t_max, chart.x_max, 1.0, 1.0])
    rows, g = np.empty((0, 4)), np.empty(0)
    while len(rows) < N_RANDOM_COVECTORS:
        block = low + (high - low) * rng.random((N_RANDOM_COVECTORS - len(rows), 4))
        g_block = metric.inverse_on_covector(block[:, :2], block[:, 2:])
        keep = np.abs(g_block) >= 1e-3
        rows, g = np.concatenate([rows, block[keep]]), np.concatenate([g, g_block[keep]])
    rep = symbol_invertibility(p, rows[:, :2], rows[:, 2:])
    all_inv = bool(np.all(rep.invertible))
    # for rank 2 pairs det sigma_P(xi) = -g(xi, xi), so the margin
    # |det| - |g| should never go (numerically) negative; rank 1
    # symbols are linear in xi and only the invertibility flag applies
    min_margin = float(np.min(rep.abs_det - np.abs(g) if p.k == 2 else rep.abs_det))
    failures = []
    if not pair.passed:
        failures.append(f"pair deviation {pair.max_deviation:.3e} exceeds tol {pair.pq.tol:.3e}")
    if not all_inv:
        failures.append("singular principal symbol at a non-null covector")
    if p.k == 2:
        _gate(failures, "determinant margin", min_margin, low=TOLERANCES["pair_min_det_margin"])
    results = {
        "pair_passed": pair.passed,
        "max_deviation": pair.max_deviation,
        "tol": pair.pq.tol,
        "n_covectors": N_RANDOM_COVECTORS,
        "min_det_margin": min_margin,
        "all_invertible": all_inv,
    }
    return results, failures


def run_solve(cfg: ScenarioConfig, seed: int, nx: Optional[int] = None):
    _, rep = cfg.scenario(nx).solution
    failures = []
    _gate(failures, "support leak", rep.support_leak, high=TOLERANCES["solve_leak"])
    return vars(rep), failures


def run_direct_vs_reduced(cfg: ScenarioConfig, seed: int, nx: Optional[int] = None):
    scn = cfg.scenario(nx)
    reduced, _ = scn.solution
    direct = solve_first_order_direct(scn.p, scn.metric, scn.data, scn.grid)
    ref = direct.linf()
    gap = squared_norm(reduced, direct)[1]
    mismatch = gap / ref if ref > 0 else gap
    failures = []
    _gate(failures, "reduced-vs-direct mismatch", mismatch, high=TOLERANCES["direct_vs_reduced"])
    return {"mismatch": mismatch, "reference_linf": ref}, failures


def run_greens(cfg: ScenarioConfig, seed: int, nx: Optional[int] = None):
    scn = cfg.scenario(nx)
    phi = scn.source_section("source")
    # advanced first, so that S+ phi is the last solution made: held for
    # adjoint-check, it then overlaps no other march of this battery
    advanced = greens_report(scn.p, scn.q, scn.metric, phi, "advanced", scn.grid)[0]
    retarded, s_phi = greens_report(scn.p, scn.q, scn.metric, phi, "retarded", scn.grid)
    if nx is None:  # a convergence rung's S+ phi has no reader
        scn.s_plus_source = s_phi
    results = {}
    failures = []
    for direction, rep in (("retarded", retarded), ("advanced", advanced)):
        results[direction] = vars(rep)
        _gate(failures, f"{direction} identity_i", rep.identity_i, high=TOLERANCES["greens_identity"])
        _gate(failures, f"{direction} identity_ii", rep.identity_ii, high=TOLERANCES["greens_identity"])
        _gate(failures, f"{direction} support_leak", rep.support_leak, high=TOLERANCES["greens_leak"])
    return results, failures


def run_adjoint_check(cfg: ScenarioConfig, seed: int, nx: Optional[int] = None):
    scn = cfg.scenario(nx)
    scn.check_pairing_sections()
    f, psi = scn.source_section("source"), scn.source_section("dual_source")
    # greens' retarded S+ phi when the scenario holds it, released before
    # the dual march; else None, and S+ f is solved with the dual pair
    rep = adjoint_pairing_check(scn.p, scn.q, scn.metric, psi, f, scn.take_s_plus_source(), scn.grid)
    failures = []
    _gate(failures, "pairing defect", rep.defect, high=TOLERANCES["adjoint_defect"])
    _gate(failures, "mismatched-direction control", rep.mismatch_control, low=TOLERANCES["adjoint_mismatch_min"])
    return vars(rep), failures


def run_beta(cfg: ScenarioConfig, seed: int, nx: Optional[int] = None):
    scn = cfg.scenario(nx)
    metric, grid = scn.metric, scn.grid
    phi, _ = scn.solution
    js = [int(round(f * (grid.nt - 1))) for f in (0.2, 0.35, 0.5, 0.65, 0.8)] + [grid.level_of(cfg.t0)]
    levels = [float(grid.ts[j]) for j in js[:-1]]
    # an independent second solution for the symmetry check, read only at
    # the levels and at t0
    swapped = cfg.initial_data(grid, list(reversed([f"({c})*(1+x)" for c in cfg.initial_components])))
    psi = solve_cauchy_plain(scn.p, scn.q, metric, swapped, grid, (min(js), max(js)))
    herm_rep = hypersurface_independence(psi, phi, levels, metric)
    b_pf = beta_sigma(psi, phi, CauchyLine(cfg.t0), metric)
    b_fp = beta_sigma(phi, psi, CauchyLine(cfg.t0), metric)
    herm_defect = abs(b_pf - np.conj(b_fp))
    scale = max(abs(b_pf), 1.0)
    herm_defect = float(herm_defect / scale)
    failures = []
    _gate(failures, "beta(phi, phi)", herm_rep.positivity_margin, low=0.0, strict=True)
    _gate(failures, "Hermitian defect", herm_defect, high=TOLERANCES["beta_hermitian"])
    _gate(failures, "hypersurface drift", herm_rep.hypersurface_drift, high=TOLERANCES["beta_drift"])
    results = {
        "value": b_pf,
        "positivity": herm_rep.positivity_margin,
        "hermitian_defect": herm_defect,
        "hypersurface_drift": herm_rep.hypersurface_drift,
        "levels": levels,
    }
    return results, failures


def run_isometry(cfg: ScenarioConfig, seed: int, nx: Optional[int] = None):
    scn = cfg.scenario(nx)
    metric, grid = scn.metric, scn.grid
    # the configured data times 1 (the scenario's solution), x and cos(3*x)
    data = [cfg.initial_data(grid, [f"({c})*({m})" for c in cfg.initial_components]) for m in ("x", "cos(3*x)")]
    t_prime = cfg.t0 + 0.5 * (metric.chart.t_max - cfg.t0)
    # the two new solutions are read only at t0 and t'
    span = (grid.level_of(cfg.t0), grid.level_of(t_prime))
    corpus = [scn.solution[0]] + [solve_cauchy_plain(scn.p, scn.q, metric, d, grid, span) for d in data]
    rep = data_space_isometry_check(corpus, CauchyLine(cfg.t0), CauchyLine(t_prime), metric)
    failures = []
    _gate(failures, "Gram mismatch", rep.gram_mismatch, high=TOLERANCES["isometry_mismatch"])
    _gate(failures, "min Gram eigenvalue", rep.min_gram_eigenvalue, low=0.0, strict=True)
    return vars(rep), failures


# ---------------------------------------------------------------------------
# convergence ladders

def _ladder_error(target: str, cfg: ScenarioConfig, seed: int, nx: int) -> float:
    """The error a convergence target measures at one rung."""
    battery, error, _, _ = _battery(target, cfg)
    return error(battery(cfg, seed, nx)[0])


def _ladder(cfg: ScenarioConfig) -> List[int]:
    """The ladder's resolutions nx/4, nx/2 and nx, each validated by
    building its scenario before any solve starts."""
    if cfg.nx < 64:
        raise ConfigError("convergence ladder needs grid.nx >= 64")
    nxs = [cfg.nx // 4, cfg.nx // 2, cfg.nx]
    for n in nxs:
        cfg.scenario(n)
    return nxs


def run_convergence(cfg: ScenarioConfig, seed: int, target: str):
    if target not in CONVERGENCE_TARGETS:
        raise ConfigError(f"convergence target must be one of {', '.join(CONVERGENCE_TARGETS)}")
    nxs = _ladder(cfg)
    errors = [_ladder_error(target, cfg, seed, n) for n in nxs]
    orders = [float("inf") if fine <= 0 else float(np.log2(coarse / fine)) for coarse, fine in zip(errors, errors[1:])]
    final = orders[-1]
    failures = []
    # a ladder whose finest error is at the floor has no order left to show
    if not _within(errors[-1], high=TOLERANCES["order_floor"]):
        _gate(failures, "observed order", final, low=TOLERANCES["min_order"])
    ladder = [
        {"nx": n, "error": e, "order": (None if i == 0 else orders[i - 1])}
        for i, (n, e) in enumerate(zip(nxs, errors))
    ]
    results = {"target": target, "ladder": ladder, "orders": orders, "final_order": final}
    return results, failures


# ---------------------------------------------------------------------------
# the battery table

def _batteries() -> Dict[str, tuple]:
    """Each battery by subcommand, in verify-all's order, as (function, the
    error a convergence rung reads from its results or None if it is no
    convergence target, whether it needs a Dirac preset, its result fields).
    Built per call, so that a run_* replaced on the module is the one that
    runs.  verify-all runs convergence as convergence solve."""
    return {
        "check-pair": (run_check_pair, None, False,
                       {"pair_passed", "max_deviation", "tol", "n_covectors", "min_det_margin", "all_invertible"}),
        "solve": (run_solve, lambda r: r["residual_l2"], False,
                  {"residual_l2", "residual_linf", "trace_defect", "support_leak"}),
        "direct-vs-reduced": (run_direct_vs_reduced, lambda r: r["mismatch"], False, {"mismatch", "reference_linf"}),
        "greens": (run_greens, lambda r: r["retarded"]["identity_i"], False, {"retarded", "advanced"}),
        "adjoint-check": (run_adjoint_check, lambda r: r["defect"], False,
                          {"defect", "lhs", "rhs", "mismatch_control"}),
        "convergence": (run_convergence, None, False, {"target", "ladder", "orders", "final_order"}),
        "beta": (run_beta, lambda r: r["hypersurface_drift"], True,
                 {"value", "positivity", "hermitian_defect", "hypersurface_drift", "levels"}),
        "isometry": (run_isometry, None, True,
                     {"gram_mismatch", "min_gram_eigenvalue", "gram_sigma", "gram_sigma_prime"}),
    }


SUBCOMMANDS = (*_batteries(), "verify-all")
CONVERGENCE_TARGETS = tuple(name for name, (_, error, _, _) in _batteries().items() if error)


def _battery(name: str, cfg: ScenarioConfig) -> tuple:
    """The table row of a battery, once cfg is known to have its preset."""
    row = _batteries()[name]
    if row[2] and cfg.preset not in DIRAC_PRESETS:
        raise ConfigError(f"{name} requires a {' or '.join(DIRAC_PRESETS)} preset scenario")
    return row


# ---------------------------------------------------------------------------
# orchestration

def run(subcommand: str, cfg: ScenarioConfig, seed: int = 0, target: Optional[str] = None, out_dir: Optional[str] = None):
    """Execute a subcommand; returns (report dict, timings dict, artifacts).

    The report is fully deterministic for a fixed config and seed; all
    wall-clock measurements live in the timings dict.  It echoes out_dir,
    the directory it is written to, as its output directory (the config's
    by default).
    """
    timings: Dict[str, float] = {}
    artifacts: Dict[str, object] = {}
    if subcommand == "verify-all":
        results, failures = _run_verify_all(cfg, seed, timings)
    elif subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    elif subcommand == "convergence" and target is None:
        raise ConfigError("convergence needs a target subcommand")
    else:
        battery = _battery(subcommand, cfg)[0]
        args = (target,) if subcommand == "convergence" else ()
        start = time.perf_counter()
        results, failures = battery(cfg, seed, *args)
        timings[subcommand if target is None else f"convergence-{target}"] = time.perf_counter() - start
        if subcommand in ("solve", "beta"):  # the solution the CSV dumps show
            artifacts["solution" if subcommand == "solve" else "beta"] = cfg.scenario().solution[0]
        if subcommand == "convergence":
            artifacts["ladder"] = results["ladder"]

    report = {
        "subcommand": subcommand if target is None else f"{subcommand} {target}",
        "seed": seed,
        "scenario": _jsonable(cfg.echo(out_dir)),
        "results": _jsonable(results),
        "passed": not failures,
        "failures": list(failures),
    }
    _validate_report(report, subcommand)
    return report, timings, artifacts


def _run_verify_all(cfg: ScenarioConfig, seed: int, timings: Dict[str, float]):
    """Every battery the preset allows, in table order, on the config's
    scenario at nx, so that solve, direct-vs-reduced, the ladder's top rung
    and beta judge one solution.  Before the first battery, the scenario's
    check_pairing_sections excludes zero sections and source_section
    validates the source and the dual source, cones included.  A ladder
    rung that the config cannot build fails convergence alone, with no
    results, and every other battery still gives its verdict.  greens
    hands its retarded S+ phi to adjoint-check, which runs next."""
    scn = cfg.scenario()
    scn.check_pairing_sections()
    for name in ("source", "dual_source"):
        scn.source_section(name)
    results = {}
    failures: List[str] = []
    for name, (battery, _, dirac, _) in _batteries().items():
        if dirac and cfg.preset not in DIRAC_PRESETS:
            continue
        args = ()
        if name == "convergence":
            name, args = "convergence solve", ("solve",)
        start = time.perf_counter()
        try:
            results[name], fails = battery(cfg, seed, *args)
        except ConfigError as e:  # a ladder rung that the config cannot build
            if name != "convergence solve":
                raise
            fails = [str(e)]
        timings[name] = time.perf_counter() - start
        failures.extend(f"{name}: {f}" for f in fails)
    return results, failures


def _validate_report(report: Dict, subcommand: str) -> None:
    """Reject fields the table does not document, battery by battery in
    verify-all's results."""
    unknown = set(report) - REPORT_FIELDS
    if unknown:
        raise AssertionError(f"undocumented report fields: {sorted(unknown)}")
    results = report["results"] if subcommand == "verify-all" else {subcommand: report["results"]}
    batteries = _batteries()
    for name, values in results.items():
        extra = set(values) - batteries[name.split()[0]][3]
        if extra:
            raise AssertionError(f"undocumented result fields for {name}: {sorted(extra)}")


# ---------------------------------------------------------------------------
# output files

def write_report(report: Dict, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "report.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(report, sort_keys=True, indent=2, allow_nan=False))
        fh.write("\n")
    return path


def write_timings(timings: Dict[str, float], out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "timings.json")
    with open(path, "w") as fh:
        fh.write(json.dumps({k: round(v, 6) for k, v in sorted(timings.items())}, indent=2))
        fh.write("\n")
    return path


def _write_csv(out_dir: str, name: str, header: List[str], rows) -> str:
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path


def write_csv_dumps(artifacts: Dict, out_dir: str) -> List[str]:
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if "solution" in artifacts:
        phi = artifacts["solution"]
        final = phi.level(phi.grid.nt - 1)
        written.append(_write_csv(
            out_dir, "solution_final.csv",
            ["x"] + [f"re_{c}" for c in range(phi.k)] + [f"im_{c}" for c in range(phi.k)],
            ([repr(float(x))] + [repr(float(v.real)) for v in final[i]] + [repr(float(v.imag)) for v in final[i]]
             for i, x in enumerate(phi.grid.xs)),
        ))
    if "ladder" in artifacts:
        written.append(_write_csv(
            out_dir, "convergence.csv", ["nx", "error", "order"],
            ([row["nx"], repr(row["error"]), "" if row["order"] is None else repr(row["order"])]
             for row in artifacts["ladder"]),
        ))
    if "beta" in artifacts:
        phi = artifacts["beta"]
        j = phi.grid.nt // 2
        density = dirac_current(phi.level(j), phi.level(j), "t")
        written.append(_write_csv(
            out_dir, "current_density.csv", ["x", "j_t"],
            ([repr(float(x)), repr(float(d.real))] for x, d in zip(phi.grid.xs, density)),
        ))
    return written


# ---------------------------------------------------------------------------
# entry point

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="prehyp",
        description="verification runs for first-order hyperbolic operator pairs",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("target", nargs="?", default=None,
                        help="ladder target for the convergence subcommand")
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    out_dir = args.out
    try:
        cfg = load_config(args.config)
        out_dir = args.out or cfg.output_directory
        if args.subcommand != "convergence" and args.target is not None:
            raise ConfigError(f"unexpected argument {args.target!r}")
        report, timings, artifacts = run(args.subcommand, cfg, args.seed, args.target, out_dir)
        if "json" in cfg.output_formats:
            print(write_report(report, out_dir))
            write_timings(timings, out_dir)
        if "csv" in cfg.output_formats:
            for path in write_csv_dumps(artifacts, out_dir):
                print(path)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (PairCheckError, SolverBlowupError, ExprEvalError) as e:
        print(f"{' '.join(filter(None, (args.subcommand, args.target)))}: FAIL")
        print(f"  {e}")
        return 2
    except Exception as e:  # anything unexpected is an internal error
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        if out_dir:
            with contextlib.suppress(OSError):  # the message above stands alone
                os.makedirs(out_dir, exist_ok=True)
                with open(os.path.join(out_dir, "error.txt"), "w") as fh:
                    fh.write(traceback.format_exc())
        return 3
    status = "pass" if report["passed"] else "FAIL"
    print(f"{report['subcommand']}: {status}")
    for f in report["failures"]:
        print(f"  {f}")
    return 0 if report["passed"] else 2


if __name__ == "__main__":
    sys.exit(main())
