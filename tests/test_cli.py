import json

import numpy as np
import pytest

from prehyp import cli
from prehyp.cli import _jsonable, main, run, write_csv_dumps, write_report
from prehyp.config import load_config_text

DIRAC_CFG = """
[spacetime]
alpha = 1
beta = 1
t_range = [-0.3, 0.3]
x_range = [-1, 1]

[operator_P]
preset = dirac_massive
mass = 1.0

[grid]
nx = 256
cfl = 0.4

[initial_data]
components = [1, 0.5]
window_center = 0.0
window_halfwidth = 0.05
window_steepness = 2.5

[output]
directory = out
formats = [json]
"""

# small enough for a quick verify-all: the steeper window keeps the causal
# margin down to the nx/4 = 32 rung
SMALL_DIRAC_CFG = DIRAC_CFG.replace("nx = 256", "nx = 128").replace(
    "window_steepness = 2.5", "window_steepness = 10"
)

SCALAR_CFG = DIRAC_CFG.replace("preset = dirac_massive", "preset = scalar_transport_pair").replace(
    "components = [1, 0.5]", "components = [1]"
)

NON_PAIR_CFG = """
[spacetime]
alpha = 1
beta = 1
t_range = [-0.3, 0.3]
x_range = [-1, 1]

[bundle]
rank = 1

[operator_P]
A_t = [[1]]
A_x = [[1]]
B = [[0]]

[operator_Q]
A_t = [[1]]
A_x = [[1]]
B = [[0]]

[initial_data]
components = [1]
window_center = 0.0
window_halfwidth = 0.05
window_steepness = 2.5
"""


def write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestJsonable:
    def test_complex_becomes_re_im_pair(self):
        assert _jsonable(1 + 2j) == [1.0, 2.0]
        assert _jsonable({"a": [1j]}) == {"a": [[0.0, 1.0]]}

    def test_nan_is_tagged(self):
        assert _jsonable(float("nan")) == "nan"


class TestRun:
    def test_check_pair_passes(self):
        cfg = load_config_text(DIRAC_CFG)
        report, timings, _ = run("check-pair", cfg, seed=0)
        assert report["passed"]
        assert report["results"]["pair_passed"]
        assert report["results"]["min_det_margin"] >= cli.TOLERANCES["pair_min_det_margin"]
        assert report["results"]["all_invertible"]
        assert "check-pair" in timings

    def test_check_pair_fails_on_non_pair(self):
        cfg = load_config_text(NON_PAIR_CFG)
        report, _, _ = run("check-pair", cfg, seed=0)
        assert not report["passed"]
        assert report["failures"]

    def test_solve_report_schema(self):
        cfg = load_config_text(DIRAC_CFG)
        report, _, artifacts = run("solve", cfg, seed=0)
        assert report["passed"]
        assert set(report["results"]) == {
            "residual_l2", "residual_linf", "trace_defect", "support_leak",
        }
        assert set(report) == {"subcommand", "seed", "scenario", "results", "passed", "failures"}
        assert "solution" in artifacts

    def test_scalar_preset_solve(self):
        cfg = load_config_text(SCALAR_CFG)
        report, _, _ = run("solve", cfg, seed=0)
        assert report["passed"]

    def test_beta_requires_dirac(self):
        from prehyp.config import ConfigError
        cfg = load_config_text(SCALAR_CFG)
        with pytest.raises(ConfigError, match="dirac"):
            run("beta", cfg, seed=0)

    def test_beta_on_dirac(self):
        cfg = load_config_text(DIRAC_CFG)
        report, _, artifacts = run("beta", cfg, seed=0)
        assert report["passed"]
        assert report["results"]["positivity"] > 0
        assert report["results"]["hypersurface_drift"] < cli.TOLERANCES["beta_drift"]
        assert "beta" in artifacts

    def test_convergence_solve_ladder(self):
        # the coarsest rung is nx/4, which needs nx >= 512 to keep the
        # 8-node causal margin at every level
        cfg = load_config_text(DIRAC_CFG.replace("nx = 256", "nx = 512"))
        report, _, artifacts = run("convergence", cfg, seed=0, target="solve")
        assert report["passed"]
        ladder = report["results"]["ladder"]
        assert [row["nx"] for row in ladder] == [128, 256, 512]
        assert report["results"]["final_order"] >= cli.TOLERANCES["min_order"]

    def test_convergence_rejects_unknown_target(self):
        from prehyp.config import ConfigError
        cfg = load_config_text(DIRAC_CFG)
        with pytest.raises(ConfigError, match="target"):
            run("convergence", cfg, seed=0, target="everything")

    def test_report_is_deterministic(self, tmp_path):
        cfg = load_config_text(SCALAR_CFG)
        paths = []
        for name in ("a", "b"):
            report, _, _ = run("solve", cfg, seed=0)
            paths.append(write_report(report, str(tmp_path / name)))
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()

    def test_report_json_serializable(self):
        cfg = load_config_text(DIRAC_CFG)
        report, _, _ = run("adjoint-check", cfg, seed=0)
        text = json.dumps(report, sort_keys=True)
        assert "defect" in text
        assert report["results"]["mismatch_control"] > cli.TOLERANCES["adjoint_mismatch_min"]


class TestMain:
    def test_success_exit_zero(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SCALAR_CFG)
        code = main(["check-pair", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "check-pair: pass" in out
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "timings.json").exists()

    def test_missing_config_exit_one(self, tmp_path, capsys):
        code = main(["solve", "--config", str(tmp_path / "missing.cfg")])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_invalid_config_exit_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, DIRAC_CFG.replace("alpha = 1\n", ""))
        assert main(["solve", "--config", cfg]) == 1
        assert "spacetime.alpha required" in capsys.readouterr().err

    def test_tolerance_failure_exit_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, NON_PAIR_CFG)
        code = main(["check-pair", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "FAIL" in capsys.readouterr().out

    def test_convergence_needs_target(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SCALAR_CFG)
        assert main(["convergence", "--config", cfg]) == 1
        assert "target" in capsys.readouterr().err

    def test_stray_target_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SCALAR_CFG)
        assert main(["solve", "extra", "--config", cfg]) == 1
        assert "unexpected argument" in capsys.readouterr().err

    def test_csv_outputs(self, tmp_path, capsys):
        text = SCALAR_CFG.replace("formats = [json]", "formats = [json, csv]")
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        assert (tmp_path / "out" / "solution_final.csv").exists()
        with open(tmp_path / "out" / "solution_final.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header[0] == "x"
        assert "re_0" in header

    def test_convergence_csv(self, tmp_path):
        text = SCALAR_CFG.replace("formats = [json]", "formats = [json, csv]").replace(
            "nx = 256", "nx = 512"
        )
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        assert main(["convergence", "solve", "--config", cfg, "--out", out]) == 0
        assert (tmp_path / "out" / "convergence.csv").exists()


class TestGates:
    def test_only_finite_values_within_bounds_pass(self):
        assert cli._within(0.5, high=1.0)
        assert cli._within(1.0, low=1.0)
        assert not cli._within(0.0, low=0.0, strict=True)
        for bad in (float("nan"), float("inf"), float("-inf")):
            assert not cli._within(bad, high=1.0)
            assert not cli._within(bad, low=0.0)
            assert not cli._within(bad, low=0.0, strict=True)

    def test_nan_battery_is_a_failure_exit_two(self, tmp_path, capsys, monkeypatch):
        from prehyp import config

        # the configured Cauchy problem is solved by its scenario, in config
        real = config.solve_cauchy

        def nan_leak(*args, **kwargs):
            phi, rep = real(*args, **kwargs)
            rep.support_leak = float("nan")
            return phi, rep

        monkeypatch.setattr(config, "solve_cauchy", nan_leak)
        cfg = write_cfg(tmp_path, SCALAR_CFG)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        out = capsys.readouterr().out
        assert "solve: FAIL" in out
        assert "support leak nan" in out
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["results"]["support_leak"] == "nan"
        assert not report["passed"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_fails_with_exit_two(self, tmp_path, capsys):
        # max_light_speed samples a lattice that misses the narrow dip in
        # beta, so the grid breaks the CFL limit about 5x and the solve
        # blows up; neither verdict may pass
        text = (
            SCALAR_CFG.replace("beta = 1", "beta = 1-0.95*exp(-20000*(x-0.5037)^2)")
            .replace("cfl = 0.4", "cfl = 0.9")
            .replace("nx = 256", "nx = 512")
        )
        cfg = write_cfg(tmp_path, text)
        for argv in (["solve"], ["convergence", "solve"]):
            assert main(argv + ["--config", cfg, "--out", str(tmp_path / "out")]) == 2
            out = capsys.readouterr().out
            assert f"{' '.join(argv)}: FAIL" in out
            assert "the solution is not finite from time level" in out


    @pytest.mark.parametrize("subcommand", ["solve", "beta", "greens"])
    def test_non_finite_coefficient_fails_with_exit_two(self, tmp_path, capsys, subcommand):
        # d_t beta = 0.05/sqrt(t+0.3) is infinite on the first time level,
        # which every solve of these batteries reaches
        text = DIRAC_CFG.replace("beta = 1", "beta = 1+0.1*sqrt(t+0.3)").replace("nx = 256", "nx = 128")
        cfg = write_cfg(tmp_path, text)
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        out = captured.out.splitlines()
        assert out[0] == f"{subcommand}: FAIL"
        assert out[1].startswith("  non-finite result from ") and " at (t=-0.3" in out[1]
        assert captured.err == ""
        assert not (tmp_path / "out" / "error.txt").exists()

class TestInternalError:
    def test_traceback_goes_to_error_txt(self, tmp_path, capsys, monkeypatch):
        def broken_battery(cfg, seed, nx=None):
            raise RuntimeError("battery failed")

        monkeypatch.setattr(cli, "run_check_pair", broken_battery)
        cfg = write_cfg(tmp_path, SCALAR_CFG)
        assert main(["check-pair", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == "internal error: RuntimeError: battery failed\n"
        trace = (tmp_path / "out" / "error.txt").read_text()
        assert trace.startswith("Traceback")
        assert "in broken_battery" in trace
        assert not (tmp_path / "out" / "report.json").exists()


class TestOneSolvePerQuestion:
    """Each distinct evolution solve in a verdict runs once."""

    @pytest.fixture
    def solves(self, monkeypatch):
        from prehyp import cauchy

        calls = []
        real = cauchy._evolve

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(cauchy, "_evolve", counting)
        return calls

    @pytest.mark.parametrize("subcommand, expected", [
        ("greens", 4),  # S+-phi and S+-(P phi) per direction
        ("adjoint-check", 3),  # S+ f, S'- psi and the control's S'+ psi
        ("verify-all", 14),
    ])
    def test_solve_count(self, solves, subcommand, expected):
        run(subcommand, load_config_text(SMALL_DIRAC_CFG), seed=0)
        assert len(solves) == expected

    def test_batteries_run_one_by_one_share_the_cauchy_solve(self, solves):
        # the Cauchy solve (shared by solve and beta), adjoint-check's three
        # driven solves and beta's second solution
        cfg = load_config_text(CURVED_CFG)
        for battery in (cli.run_check_pair, cli.run_solve, cli.run_adjoint_check, cli.run_beta):
            battery(cfg, 0)
        assert len(solves) == 5

    def test_one_scenario_per_resolution(self):
        cfg = load_config_text(SMALL_DIRAC_CFG)
        assert cfg.scenario() is cfg.scenario(cfg.nx)
        assert cfg.scenario(64) is cfg.scenario(64)
        assert cfg.scenario(64).grid.nx == 64


class TestResolvedAtLoad:
    """A run uses the metric and operator pair the loader resolved."""

    def test_verify_all_builds_no_metric_and_no_field_from_expressions(self, monkeypatch):
        from prehyp.bundle_ops import MatrixField
        from prehyp.geometry import DiagonalMetric

        cfg = load_config_text(SMALL_DIRAC_CFG)
        calls = []
        real_init, real_from_exprs = DiagonalMetric.__init__, MatrixField.from_exprs.__func__

        def init(self, *args, **kwargs):
            calls.append("DiagonalMetric.__init__")
            real_init(self, *args, **kwargs)

        def from_exprs(cls, entries):
            calls.append("MatrixField.from_exprs")
            return real_from_exprs(cls, entries)

        monkeypatch.setattr(DiagonalMetric, "__init__", init)
        monkeypatch.setattr(MatrixField, "from_exprs", classmethod(from_exprs))
        run("verify-all", cfg, seed=0)
        assert calls == []


class TestLadderMargins:
    @pytest.mark.parametrize("argv", [["convergence", "solve"], ["verify-all"]])
    def test_coarse_rung_margin_is_a_config_error(self, tmp_path, capsys, argv):
        # nx = 256 passes validation, but its nx/4 rung keeps no causal margin
        cfg = write_cfg(tmp_path, DIRAC_CFG)
        assert main(argv + ["--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert "nx = 64" in err
        assert not (tmp_path / "out" / "report.json").exists()


CURVED_CFG = SMALL_DIRAC_CFG.replace("alpha = 1\n", "alpha = 1+0.1*sin(t)\n").replace(
    "beta = 1\n", "beta = 1+0.3*cos(2*x)\n"
)


@pytest.fixture
def sweeps(monkeypatch):
    """The arguments of every causal_shadow call, as (seed, t0, direction,
    t_target, dt)."""
    from prehyp import geometry, greens, grids

    calls = []
    real = geometry.causal_shadow

    def counting(metric, seed, t0, direction="future", t_target=None, dt=None):
        calls.append((tuple(np.ravel(seed)), float(t0), direction, t_target, dt))
        return real(metric, seed, t0, direction, t_target, dt)

    # also where a module imports the function by name
    for mod in (geometry, grids, greens):
        monkeypatch.setattr(mod, "causal_shadow", counting, raising=False)
    return calls


class TestOneSweepPerShadow:
    """A shadow is a function of the metric and its arguments, and each
    distinct one is swept once per metric."""

    def test_verify_all_sweeps_each_distinct_shadow_once(self, sweeps):
        run("verify-all", load_config_text(SMALL_DIRAC_CFG), seed=0)
        assert len(sweeps) == len(set(sweeps))
        # one two-way shadow per resolution of the ladder: nx/4, nx/2 and nx
        assert [s[2] for s in sweeps].count("both") == 3

    def test_curved_batteries_make_one_two_way_sweep_from_load_on(self, sweeps):
        cfg = load_config_text(CURVED_CFG)
        for battery in (cli.run_check_pair, cli.run_solve, cli.run_adjoint_check, cli.run_beta):
            battery(cfg, 0)
        assert [s[2] for s in sweeps] == ["both", "future", "past"]

    def test_load_validates_the_shadow_the_solve_uses(self, sweeps):
        cfg = load_config_text(CURVED_CFG.replace("window_center = 0.0", "t0 = 0.0123\nwindow_center = 0.0"))
        scn = cfg.scenario()
        assert cfg.t0 not in scn.grid.ts and scn.data.t0 != cfg.t0
        assert len(sweeps) == 3
        scn.solution
        assert len(sweeps) == 3
        assert sweeps[0][1] == scn.data.t0

    def test_ladder_validates_the_coarser_rungs_only(self, monkeypatch):
        from prehyp import config

        cfg = load_config_text(SMALL_DIRAC_CFG)
        calls = []
        real = config.check_causal_margin

        def counting(metric, grid, *args):
            calls.append(grid.nx)
            return real(metric, grid, *args)

        monkeypatch.setattr(config, "check_causal_margin", counting)
        run("verify-all", cfg, seed=0)
        assert calls == [32, 64]


SOURCE = """
[source]
components = [1, 0.5]
window_center = 0.0
window_halfwidth = 0.05
window_steepness = 2.5
t_window_center = 0.0
t_window_halfwidth = 0.01
t_window_steepness = 50
"""


def line_of(text, entry):
    return text.splitlines().index(entry) + 1


class TestSourceWindows:
    """Source sections are validated on each scenario's grid, like the
    initial window: a window the driven solves cannot use is a config
    error (exit 1), not an internal error."""

    def run_main(self, tmp_path, argv, text):
        return main(argv + ["--config", write_cfg(tmp_path, text), "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("argv", [["greens"], ["adjoint-check"]])
    def test_source_time_support_near_the_edge(self, tmp_path, capsys, argv):
        text = DIRAC_CFG.replace("nx = 256", "nx = 128") + SOURCE.replace(
            "t_window_center = 0.0", "t_window_center = 0.27"
        )
        code = self.run_main(tmp_path, argv, text)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: line {line_of(text, 't_window_center = 0.27')}: source.t_window: ")
        assert "at nx = 128" in err

    def test_source_x_support_off_the_chart(self, tmp_path, capsys):
        text = DIRAC_CFG.replace("nx = 256", "nx = 128") + SOURCE.replace(
            "window_center = 0.0\nwindow_halfwidth", "window_center = 0.85\nwindow_halfwidth"
        )
        code = self.run_main(tmp_path, ["greens"], text)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: line {line_of(text, 'window_center = 0.85')}: source.window: ")

    def test_source_checked_on_every_ladder_rung(self):
        # clear of the time edges at nx = 128, not at the nx/4 rung
        text = SMALL_DIRAC_CFG + SOURCE.replace("t_window_center = 0.0", "t_window_center = 0.2")
        cfg = load_config_text(text)
        from prehyp.config import ConfigError

        with pytest.raises(ConfigError, match=rf"^line {line_of(text, 't_window_center = 0.2')}: .*at nx = 32$"):
            cli._ladder(cfg)

    @pytest.mark.parametrize("argv", [["adjoint-check"], ["verify-all"]])
    def test_mirrored_dual_source_off_the_chart(self, tmp_path, capsys, argv):
        # the dual source mirrors the source through t = 0, to t = -0.3
        text = SMALL_DIRAC_CFG.replace("t_range = [-0.3, 0.3]", "t_range = [0, 0.6]").replace(
            "window_center = 0.0", "t0 = 0.3\nwindow_center = 0.0"
        ) + SOURCE.replace("t_window_center = 0.0", "t_window_center = 0.3")
        code = self.run_main(tmp_path, argv, text)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: synthesized dual_source.t_window: ")
        assert err.rstrip().endswith("add a [dual_source] section")
        assert not (tmp_path / "out" / "report.json").exists()

    def test_synthesized_source_off_the_chart(self, tmp_path, capsys):
        text = SMALL_DIRAC_CFG.replace("window_center = 0.0", "t0 = 0.22\nwindow_center = 0.0")
        code = self.run_main(tmp_path, ["greens"], text)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: synthesized source.t_window: ")
        assert err.rstrip().endswith("add a [source] section")

    # sources whose x box lies inside the chart, but whose J+ and J- reach
    # the x-boundary within the run
    NEAR_EDGE = SOURCE.replace("window_center = 0.0\nwindow_halfwidth", "window_center = 0.45\nwindow_halfwidth")
    WIDE_NEAR_EDGE = NEAR_EDGE.replace(
        "t_window_halfwidth = 0.01\nt_window_steepness = 50", "t_window_halfwidth = 0.03\nt_window_steepness = 10"
    )

    @pytest.mark.parametrize("argv, text", [
        (["greens"], DIRAC_CFG + WIDE_NEAR_EDGE),
        (["verify-all"], SMALL_DIRAC_CFG + NEAR_EDGE),
    ], ids=["greens", "verify-all"])
    def test_source_cone_leaves_the_chart(self, tmp_path, capsys, argv, text):
        # the driven solves used to run and fail their identity gates (exit 2)
        code = self.run_main(tmp_path, argv, text)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: line {line_of(text, 'window_center = 0.45')}: source.window: ")
        assert "leaves the chart at nx = " in err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_synthesized_source_cone_leaves_the_chart(self, tmp_path, capsys):
        # the synthesized source's cones start 0.06 before and after t0,
        # wider than the initial window's shadow by more than 8 nodes at nx = 512
        text = DIRAC_CFG.replace("nx = 256", "nx = 512").replace("window_steepness = 2.5", "window_steepness = 10")
        text = text.replace("window_center = 0.0", "window_center = 0.5")
        code = self.run_main(tmp_path, ["greens"], text)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: synthesized source.window: the source's causal future or past leaves")
        assert err.rstrip().endswith("add a [source] section")
