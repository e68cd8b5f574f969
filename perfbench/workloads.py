"""The three benchmark workloads.

Each workload draws its inputs from the seed, runs one verification per
round through prehyp's public API and applies prehyp's own gates to the
outcome.  A round starts from the generated inputs (expression strings,
window parameters or scenario file text), so it pays for everything a
user pays for one verdict except the interpreter and the imports.

All workloads use the Dirac model with m = 1 on the chart
[-0.3, 0.3] x [-1, 1] with cfl 0.4.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
from typing import List, Optional

import numpy as np

T_RANGE = (-0.3, 0.3)
X_RANGE = (-1.0, 1.0)
CFL = 0.4
MASS = 1.0
CURVED_METRIC = ("1+0.1*sin(t)", "1+0.3*cos(2*x)")


class Checks:
    """Counts the checks a run attempts and the ones that fail.  A gate
    passes only on a finite value within its bound."""

    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def gate_max(self, name: str, value, bound: float) -> bool:
        v = float(value)
        return self.expect(name, math.isfinite(v) and v <= bound, f"{v!r} > {bound!r}")

    def gate_min(self, name: str, value, bound: float) -> bool:
        v = float(value)
        return self.expect(name, math.isfinite(v) and v >= bound, f"{v!r} < {bound!r}")

    def finite(self, name: str, values) -> bool:
        flat = np.asarray(_numbers(values), dtype=complex)
        return self.expect(name, bool(np.all(np.isfinite(flat))), "non-finite result")


def _numbers(value) -> List[complex]:
    """Every number inside a nested result structure."""
    if isinstance(value, dict):
        return [n for v in value.values() for n in _numbers(v)]
    if isinstance(value, (list, tuple)):
        return [n for v in value for n in _numbers(v)]
    if isinstance(value, np.ndarray):
        return list(value.ravel())
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return []
    return [complex(value)]


def _order(coarse: float, fine: float) -> float:
    return math.log2(coarse / fine) if fine > 0 else math.inf


def _literal(value: float) -> str:
    return repr(round(float(value), 6))


# ---------------------------------------------------------------------------

class FlatLadder:
    """Library calls on Minkowski: a Cauchy solve and the two Green's
    identities at three resolutions, gated on their observed orders."""

    name = "flat_ladder"
    NXS = (128, 256, 512)
    min_rounds = 1
    # one untimed round first: a round is short, and the first one in a
    # process pays for lazy imports and allocator growth
    warmup_rounds = 1

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 1])
        self.seed = seed
        self.data_components = [_literal(a) for a in rng.uniform(0.5, 1.5, 2)]
        self.data_center = float(rng.uniform(-0.1, 0.1))
        self.source_components = [_literal(a) for a in rng.uniform(0.5, 1.5, 2)]
        self.source_x = (float(rng.uniform(-0.1, 0.1)), 0.05, 2.5)
        self.source_t = (float(rng.uniform(-0.05, 0.05)), 0.03, 10.0)

    def setup(self, pkg):
        """Metric, operator pair and the ladder's grids."""
        chart = pkg.Chart1p1(*T_RANGE, *X_RANGE)
        metric = pkg.DiagonalMetric("1", "1", chart)
        p, q = pkg.build_dirac_pair(pkg.DiracModel(mass=MASS), metric)
        grids = [pkg.build_grid(chart, metric, nx, CFL) for nx in self.NXS]
        return metric, p, q, grids

    def round(self, pkg, checks: Checks) -> None:
        from prehyp.cli import TOLERANCES

        metric, p, q, grids = self.setup(pkg)
        residuals, ident_i, ident_ii, leaks = [], [], [], []
        for grid in grids:
            data = pkg.make_cauchy_data(grid, self.data_components, 0.0, self.data_center, 0.05, 2.5)
            _, rep = pkg.solve_cauchy(p, q, metric, data, grid)
            residuals.append(rep.residual_l2)
            leaks.append(rep.support_leak)
            section = pkg.make_test_section(grid, self.source_components, self.source_x, self.source_t)
            ident_i.append(pkg.identity_i_residual(p, q, metric, section, "retarded", grid))
            ident_ii.append(pkg.identity_ii_residual(p, q, metric, section, "advanced", grid))
        checks.finite("flat_ladder errors", [residuals, ident_i, ident_ii, leaks])
        # the repo's ladder gate is on the final observed order; the leak
        # gate applies at the top resolution, as for a configured solve
        for label, errs in (("solve", residuals), ("identity_i", ident_i), ("identity_ii", ident_ii)):
            checks.gate_min(f"{label} order", _order(errs[-2], errs[-1]), TOLERANCES["min_order"])
        checks.gate_max("solve leak", leaks[-1], TOLERANCES["solve_leak"])


# ---------------------------------------------------------------------------

SCENARIO = """\
[spacetime]
alpha = {alpha}
beta = {beta}
t_range = [{t0}, {t1}]
x_range = [{x0}, {x1}]
topology = line

[operator_P]
preset = dirac_massive
mass = {mass}

[grid]
nx = {nx}
cfl = {cfl}

[initial_data]
components = [{c0}, {c1}]
t0 = 0.0
window_center = {center}
window_halfwidth = 0.05
window_steepness = 2.5

[source]
components = [{s0}, {s1}]
window_center = {sx}
window_halfwidth = 0.05
window_steepness = 2.5
t_window_center = {st}
t_window_halfwidth = 0.03
t_window_steepness = 10.0

[dual_source]
components = [{s1}, {s0}]
window_center = {dx}
window_halfwidth = 0.05
window_steepness = 2.5
t_window_center = {dt}
t_window_halfwidth = 0.03
t_window_steepness = 10.0

[output]
directory = {out}
formats = [json]
"""


def scenario_text(seed: int, stream: int, nx: int, metric, out: str = "out",
                  center_range: float = 0.05) -> str:
    """A dirac_massive scenario whose amplitudes and window and source
    centres come from the seed."""
    rng = np.random.default_rng([seed, stream])
    c0, c1, s0, s1 = rng.uniform(0.5, 1.5, 4)
    center, sx, dx = rng.uniform(-center_range, center_range, 3)
    st, dt = rng.uniform(-0.05, 0.05, 2)
    return SCENARIO.format(
        alpha=metric[0], beta=metric[1], t0=T_RANGE[0], t1=T_RANGE[1],
        x0=X_RANGE[0], x1=X_RANGE[1], mass=MASS, nx=nx, cfl=CFL,
        c0=_literal(c0), c1=_literal(c1), center=_literal(center),
        s0=_literal(s0), s1=_literal(s1), sx=_literal(sx), st=_literal(st),
        dx=_literal(dx), dt=_literal(dt), out=out,
    )


class CurvedDirac:
    """Four CLI batteries on the curved metric, called through their
    public functions; all their gates pass at this size."""

    name = "curved_dirac"
    NX = 160
    min_rounds = 1
    warmup_rounds = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.text = scenario_text(seed, 2, self.NX, CURVED_METRIC)

    def setup(self, pkg):
        """Scenario load and validation, then what a battery builds before
        its first solve."""
        from prehyp.config import load_config_text

        cfg = load_config_text(self.text)
        metric = cfg.metric()
        grid = cfg.grid(metric)
        cfg.operators()
        cfg.initial_data(grid)
        return cfg

    def round(self, pkg, checks: Checks) -> None:
        from prehyp import cli
        from prehyp.config import load_config_text

        tol = cli.TOLERANCES
        cfg = load_config_text(self.text)
        batteries = (
            ("check-pair", lambda: cli.run_check_pair(cfg, self.seed)[:2]),
            ("solve", lambda: cli.run_solve(cfg, self.seed)[:2]),
            ("adjoint-check", lambda: cli.run_adjoint_check(cfg, self.seed)),
            ("beta", lambda: cli.run_beta(cfg, self.seed)[:2]),
        )
        for name, fn in batteries:
            try:
                res, failures = fn()
            except Exception as e:  # an exception is a failed check
                checks.expect(name, False, f"{type(e).__name__}: {e}")
                continue
            checks.finite(f"{name} results", res)
            checks.expect(f"{name} verdict", not failures, "; ".join(failures))
            if name == "check-pair":
                checks.expect("pair predicate", bool(res["pair_passed"]))
                checks.expect("symbol invertibility", bool(res["all_invertible"]))
                checks.gate_min("det margin", res["min_det_margin"], tol["pair_min_det_margin"])
            elif name == "solve":
                checks.gate_max("solve leak", res["support_leak"], tol["solve_leak"])
            elif name == "adjoint-check":
                checks.gate_max("adjoint defect", res["defect"], tol["adjoint_defect"])
                checks.gate_min("mismatch control", res["mismatch_control"], tol["adjoint_mismatch_min"])
            else:
                checks.expect("beta positivity", math.isfinite(res["positivity"]) and res["positivity"] > 0)
                checks.gate_max("beta hermitian", res["hermitian_defect"], tol["beta_hermitian"])
                checks.gate_max("beta drift", res["hypersurface_drift"], tol["beta_drift"])


# ---------------------------------------------------------------------------

class VerifyAllFlat:
    """`prehyp verify-all` through the CLI entry point on a generated
    scenario file, writing report.json and timings.json."""

    name = "verify_all_flat"
    NX = 512
    # two rounds, so that every run compares two report.json files
    min_rounds = 2
    warmup_rounds = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.out = os.path.join(workdir, "out")
        self.config = os.path.join(workdir, "scenario.cfg")
        os.makedirs(workdir, exist_ok=True)
        with open(self.config, "w") as fh:
            fh.write(scenario_text(seed, 3, self.NX, ("1", "1"), self.out))
        self.first_report: Optional[bytes] = None

    def setup(self, pkg):
        """Config load and validation, then what a battery builds before
        its first solve."""
        from prehyp.config import load_config

        cfg = load_config(self.config)
        metric = cfg.metric()
        grid = cfg.grid(metric)
        cfg.operators()
        cfg.initial_data(grid)
        return cfg

    def round(self, pkg, checks: Checks) -> None:
        from prehyp import cli

        shutil.rmtree(self.out, ignore_errors=True)
        argv = ["verify-all", "--config", self.config, "--out", self.out, "--seed", str(self.seed)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        checks.expect("verify-all exit code", code == 0, f"exit {code}: {sink.getvalue().strip()}")
        try:
            with open(os.path.join(self.out, "report.json"), "rb") as fh:
                raw = fh.read()
            with open(os.path.join(self.out, "timings.json")) as fh:
                json.load(fh)
        except (OSError, ValueError) as e:
            checks.expect("report files", False, f"{type(e).__name__}: {e}")
            return
        report = json.loads(raw)
        checks.expect("report passed", report.get("passed") is True, "; ".join(report.get("failures", [])))
        for battery, res in sorted(report.get("results", {}).items()):
            # the report writes NaN as the string "nan"
            checks.expect(f"{battery} finite", '"nan"' not in json.dumps(res), "non-finite result")
            checks.finite(f"{battery} results", res)
            failed = [f for f in report.get("failures", []) if f.startswith(battery + ":")]
            checks.expect(f"{battery} gates", not failed, "; ".join(failed))
        # the same config and seed must write the same report bytes
        if self.first_report is None:
            self.first_report = raw
        else:
            checks.expect("report.json byte-identical", raw == self.first_report)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (FlatLadder, CurvedDirac, VerifyAllFlat)}
