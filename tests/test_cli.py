import json

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
        real = cli.solve_cauchy

        def nan_leak(*args, **kwargs):
            phi, rep = real(*args, **kwargs)
            rep.support_leak = float("nan")
            return phi, rep

        monkeypatch.setattr(cli, "solve_cauchy", nan_leak)
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
