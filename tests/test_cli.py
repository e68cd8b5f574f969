import json
import sys
from pathlib import Path

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

CURVED_CFG = SMALL_DIRAC_CFG.replace("alpha = 1\n", "alpha = 1+0.1*sin(t)\n").replace(
    "beta = 1\n", "beta = 1+0.3*cos(2*x)\n"
)

SCALAR_CFG = DIRAC_CFG.replace("preset = dirac_massive", "preset = scalar_transport_pair").replace(
    "components = [1, 0.5]", "components = [1]"
)

# identically zero initial data, whose errors have no scale to be relative to
ZERO_CFG = SCALAR_CFG.replace("components = [1]", "components = [0]").replace(
    "window_steepness = 2.5", "window_steepness = 10"
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


@pytest.fixture
def scenario_text(monkeypatch):
    """The benchmark's scenario generator, perfbench.workloads.scenario_text."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.workloads import scenario_text

    return scenario_text


class TestJsonable:
    def test_complex_becomes_re_im_pair(self):
        assert _jsonable(1 + 2j) == [1.0, 2.0]
        assert _jsonable({"a": [1j]}) == {"a": [[0.0, 1.0]]}

    def test_nan_is_tagged(self):
        assert _jsonable(float("nan")) == "nan"

    def test_non_finite_values_are_tagged_complex_parts_included(self):
        values = [float("inf"), -np.inf, np.float32("nan"), complex(np.inf, np.nan), np.complex128(complex(1, -np.inf))]
        assert _jsonable(values) == ["inf", "-inf", "nan", ["inf", "nan"], [1.0, "-inf"]]

    def test_report_writer_rejects_what_json_cannot_hold(self, tmp_path):
        with pytest.raises(ValueError):
            write_report({"results": float("inf")}, str(tmp_path))


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

    @pytest.mark.parametrize("flag", [False, True])
    def test_report_echoes_the_directory_it_is_written_to(self, tmp_path, monkeypatch, flag):
        # --out overrides [output] directory, and the report echoes the
        # directory the run wrote to, not the configured one
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, SCALAR_CFG.replace("directory = out", "directory = configured"))
        out = str(tmp_path / "given") if flag else "configured"
        assert main(["check-pair", "--config", cfg] + (["--out", out] if flag else [])) == 0
        report = json.loads(Path(out, "report.json").read_text())
        assert report["scenario"]["output"]["directory"] == out
        assert Path("configured").exists() != flag

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

    def test_beta_current_density_csv(self, tmp_path):
        from prehyp.qft_dirac import dirac_current

        text = DIRAC_CFG.replace("formats = [json]", "formats = [json, csv]")
        cfg = write_cfg(tmp_path, text)
        dumps = []
        for out in (tmp_path / "a", tmp_path / "b"):
            assert main(["beta", "--config", cfg, "--out", str(out)]) == 0
            dumps.append((out / "current_density.csv").read_bytes())
        assert dumps[0] == dumps[1]
        header, *rows = dumps[0].decode().splitlines()
        assert header == "x,j_t"
        phi = load_config_text(text).scenario().solution[0]
        assert len(rows) == phi.grid.nx
        j = phi.grid.nt // 2
        # gamma0^2 = Id, so j_t = |phi|^2
        expected = dirac_current(phi.values[j], phi.values[j], "t").real
        xs, j_t = np.array([[float(v) for v in row.split(",")] for row in rows]).T
        assert np.all(j_t >= 0) and j_t.max() > 0
        assert np.array_equal(xs, phi.grid.xs) and np.array_equal(j_t, expected)


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_source_whose_constants_do_not_fold_fails_with_exit_two(self, tmp_path, capsys):
        # (x*1e200)*1e200 folds to 1e200*(1e200*x), the product of the two
        # constants being infinite: the source is not finite inside its
        # windows, so the driven solutions are not either
        text = SMALL_DIRAC_CFG + SOURCE.replace("components = [1, 0.5]", "components = [(x*1e200)*1e200, 0.5]")
        cfg = write_cfg(tmp_path, text)
        assert main(["greens", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines()[:2] == ["greens: FAIL", "  the solution is not finite from time level 52 (t = 0.025) on"]
        assert captured.err == ""


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

    @pytest.mark.parametrize("argv", [["solve"], ["direct-vs-reduced"], ["convergence", "solve"], ["verify-all"]])
    def test_non_pair_solve_fails_with_exit_two(self, tmp_path, capsys, argv):
        # check-pair reports P = (1, 1, 0), Q = (1, 0.5, 0) as a tolerance
        # failure; a battery that solves with them stops at PairCheckError
        q = "[operator_Q]\nA_t = [[1]]\nA_x = "
        text = NON_PAIR_CFG.replace(q + "[[1]]", q + "[[0.5]]")
        cfg = write_cfg(tmp_path, text)
        assert main(argv + ["--config", cfg, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        out = captured.out.splitlines()
        assert out[0] == f"{' '.join(argv)}: FAIL"
        assert out[1].startswith("  (P, Q) is not a complementary pair")
        assert captured.err == ""
        assert not (tmp_path / "out" / "error.txt").exists()


def strict_json(text):
    """Parse text as JSON, which has no NaN or Infinity."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


class TestZeroData:
    """With identically zero data the mismatches are absolute, a ladder
    whose errors are all 0 has infinite orders, written as "inf", and zero
    sections, which the adjoint battery cannot pair, are a config error."""

    @pytest.mark.parametrize("argv, results", [
        (["direct-vs-reduced"], {"mismatch": 0.0, "reference_linf": 0.0}),
        (["convergence", "solve"], {"orders": ["inf", "inf"], "final_order": "inf"}),
    ], ids=["direct-vs-reduced", "convergence-solve"])
    def test_zero_data_passes_with_a_json_report(self, tmp_path, argv, results):
        # direct-vs-reduced used to divide by its zero reference (exit 3),
        # and the ladder wrote Infinity, which is not JSON
        cfg = write_cfg(tmp_path, ZERO_CFG)
        assert main(argv + ["--config", cfg, "--out", str(tmp_path / "out")]) == 0
        report = strict_json((tmp_path / "out" / "report.json").read_text())
        assert report["results"].items() >= results.items()

    @pytest.mark.parametrize("argv", [["adjoint-check"], ["verify-all"]])
    def test_zero_sections_are_a_config_error(self, tmp_path, capsys, monkeypatch, argv):
        # the pairing of zero sections is 0, so the control used to fail (exit 2)
        from prehyp import cauchy

        marches = []
        real = cauchy._march
        monkeypatch.setattr(cauchy, "_march", lambda *args: marches.append(1) or real(*args))
        cfg = write_cfg(tmp_path, ZERO_CFG)
        assert main(argv + ["--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: synthesized source.components: every component is 0")
        assert err.rstrip().endswith("add a [source] section")
        assert not (tmp_path / "out" / "report.json").exists()
        assert marches == []  # checked before any solve

    def test_configured_zero_dual_source_is_named(self, tmp_path, capsys):
        text = SCALAR_CFG + """
[dual_source]
components = [0*x]
window_center = 0.0
window_halfwidth = 0.05
window_steepness = 2.5
t_window_center = 0.0
t_window_halfwidth = 0.01
t_window_steepness = 50
"""
        cfg = write_cfg(tmp_path, text)
        assert main(["adjoint-check", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: line {line_of(text, 'components = [0*x]')}: dual_source.components: ")


class TestReportFields:
    """The battery table documents each battery's result fields, and
    writers check them, inside verify-all too."""

    @pytest.fixture(scope="class")
    def small_dirac(self):
        return load_config_text(SMALL_DIRAC_CFG)

    @pytest.mark.parametrize("name", list(cli._batteries()))
    def test_results_have_exactly_the_table_fields(self, small_dirac, name):
        report, _, _ = run(name, small_dirac, seed=0, target="solve" if name == "convergence" else None)
        assert set(report["results"]) == cli._batteries()[name][3]

    def test_undocumented_field_inside_verify_all_raises(self, monkeypatch):
        monkeypatch.setattr(cli, "run_isometry", lambda cfg, seed, nx=None: ({"undocumented": 0.0}, []))
        with pytest.raises(AssertionError, match=r"undocumented result fields for isometry: \['undocumented'\]"):
            run("verify-all", load_config_text(SMALL_DIRAC_CFG), seed=0)


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


def held(cfg):
    """The number of driven solutions a config's scenarios hold."""
    return sum(scn.s_plus_source is not None for scn in cfg._scenarios.values())


class TestOneSolvePerQuestion:
    """Each distinct evolution solve in a verdict runs once, the driven
    solves that share an operator march as one stacked state, and each
    march stops where its readers stop reading."""

    @pytest.fixture
    def solves(self, monkeypatch):
        """The number of solutions (starts) of each march."""
        from prehyp import cauchy

        marches = []
        real = cauchy._march

        def counting(rhs, stages, grid, starts):
            marches.append(len(starts))
            return real(rhs, stages, grid, starts)

        monkeypatch.setattr(cauchy, "_march", counting)
        return marches

    @pytest.fixture
    def driven(self, monkeypatch):
        """The number of greens.solve_driven calls: every driven march
        passes through it, as the benchmark's tracer counts them."""
        from prehyp import greens

        calls = []
        real = greens.solve_driven

        def counting(op, metric, jobs, grid):
            calls.append(len(jobs))
            return real(op, metric, jobs, grid)

        monkeypatch.setattr(greens, "solve_driven", counting)
        return calls

    @pytest.fixture
    def steps(self, monkeypatch):
        """The RK4 steps of all marches: (lockstep steps, member steps).
        A march's members step together until each has taken its own."""
        from prehyp import cauchy

        counts = [0, 0]
        real = cauchy._rk4

        def counting(program, stages, members, grid):
            left = [len(m.levels) - m.first for m in members]
            counts[0] += max(left, default=0)
            counts[1] += sum(left)
            return real(program, stages, members, grid)

        monkeypatch.setattr(cauchy, "_rk4", counting)
        return counts

    @pytest.mark.parametrize("subcommand, solutions, marches, driven_marches, lockstep, member_steps", [
        # S+-phi and S+-(P phi), one march per direction, over the whole grid
        pytest.param("greens", 4, 2, 2, 116, 232, id="greens-4"),
        # S+ f up to the end of psi's levels, marched with S'- psi and the
        # control's S'+ psi, each up to its end of f's levels: P* Q* has
        # the fields of PQ (116, 174 over the whole grid)
        pytest.param("adjoint-check", 3, 1, 1, 20, 60, id="adjoint-check-3"),
        pytest.param("solve", 1, 1, 0, 48, 96, id="solve-1"),
        # the swapped solution over beta's five levels and t0 (96, 192)
        pytest.param("beta", 2, 2, 0, 77, 154, id="beta-2"),
        # the two corpus solutions from t0 to t' (144, 288)
        pytest.param("isometry", 3, 3, 0, 96, 144, id="isometry-3"),
        # adjoint-check's S+ f is greens' retarded S+ phi, marched once
        # (450, 900)
        pytest.param("verify-all", 13, 10, 3, 345, 642, id="verify-all-13"),
    ])
    def test_solve_count(self, solves, driven, steps, subcommand, solutions, marches, driven_marches, lockstep,
                         member_steps):
        run(subcommand, load_config_text(SMALL_DIRAC_CFG), seed=0)
        assert (sum(solves), len(solves)) == (solutions, marches)
        assert len(driven) == driven_marches
        assert steps == [lockstep, member_steps]

    def test_greens_then_adjoint_check_march_s_plus_phi_once(self, solves, driven):
        # greens' four driven solves in two marches, then only the dual march
        cfg = load_config_text(SMALL_DIRAC_CFG)
        for battery in (cli.run_greens, cli.run_adjoint_check):
            battery(cfg, 0)
        assert (sum(solves), len(solves)) == (6, 3)
        assert driven == [2, 2, 2]

    def test_batteries_run_one_by_one_share_the_cauchy_solve(self, solves, driven, steps):
        # the Cauchy solve (shared by solve and beta), adjoint-check's three
        # driven solves in one march and beta's second solution, all but
        # the first over the levels their readers read (250, 430 over the
        # whole grid)
        cfg = load_config_text(CURVED_CFG)
        for battery in (cli.run_check_pair, cli.run_solve, cli.run_adjoint_check, cli.run_beta):
            battery(cfg, 0)
        assert (sum(solves), len(solves)) == (5, 3)
        assert driven == [3]
        assert steps == [114, 249]

    def test_adjoint_check_on_the_general_metric_marches_s_plus_f_alone(self, solves, driven):
        # there P* Q* has other fields than PQ, so S+ f is marched before
        # the dual pair, as two marches
        cli.run_adjoint_check(load_config_text(GENERAL_CFG), 0)
        assert (sum(solves), len(solves)) == (3, 2)
        assert driven == [1, 2]

    @pytest.mark.parametrize("text", [SMALL_DIRAC_CFG, CURVED_CFG], ids=["flat", "curved"])
    def test_handed_on_s_plus_phi_is_exact_and_released(self, text):
        alone = run("adjoint-check", load_config_text(text), seed=3)[0]["results"]
        cfg = load_config_text(text)
        verify_all = run("verify-all", cfg, seed=3)[0]["results"]
        assert verify_all["adjoint-check"] == alone
        assert held(cfg) == 0
        cfg = load_config_text(text)
        run("convergence", cfg, seed=3, target="greens")
        assert held(cfg) == 0
        cli.run_greens(cfg, 3)
        assert held(cfg) == 1
        cli.run_adjoint_check(cfg, 3)
        assert held(cfg) == 0

    def test_held_s_plus_phi_is_freed_before_the_dual_march(self, monkeypatch):
        import weakref

        from prehyp import greens

        cfg = load_config_text(SMALL_DIRAC_CFG)
        cli.run_greens(cfg, 0)
        held = weakref.ref(cfg.scenario().s_plus_source)
        alive = []
        real = greens.solve_driven
        monkeypatch.setattr(greens, "solve_driven", lambda *args: alive.append(held() is not None) or real(*args))
        cli.run_adjoint_check(cfg, 0)
        assert alive == [False]

    def test_one_scenario_per_resolution(self):
        cfg = load_config_text(SMALL_DIRAC_CFG)
        assert cfg.scenario() is cfg.scenario(cfg.nx)
        assert cfg.scenario(64) is cfg.scenario(64)
        assert cfg.scenario(64).grid.nx == 64


@pytest.fixture
def bodies(monkeypatch):
    """The number of composition and pair-check bodies run, past the
    operators' memo."""
    from prehyp import bundle_ops

    counts = {"compose": 0, "pair": 0}
    for name, key in (("_compose", "compose"), ("_pair_check", "pair")):
        def counting(*args, real=getattr(bundle_ops, name), key=key):
            counts[key] += 1
            return real(*args)

        monkeypatch.setattr(bundle_ops, name, counting)
    return counts


class TestSymbolicWorkOncePerRun:
    """A run composes PQ, QP and P*Q* once each and checks its pair once,
    whichever battery asks; the operators of a config keep the results."""

    def test_curved_batteries_compose_three_times_and_check_the_pair_once(self, bodies):
        cfg = load_config_text(CURVED_CFG)
        for battery in (cli.run_check_pair, cli.run_solve, cli.run_adjoint_check, cli.run_beta):
            battery(cfg, 0)
        assert bodies == {"compose": 3, "pair": 1}

    def test_two_loads_of_one_text_compose_twice(self, bodies):
        from prehyp.bundle_ops import compose

        pairs = [load_config_text(CURVED_CFG).operators() for _ in range(2)]
        pq = [compose(p, q) for p, q in pairs]
        assert bodies["compose"] == 2 and pq[0] is not pq[1]

    def test_each_operator_builds_one_right_hand_side_per_grid(self, monkeypatch):
        # the Cauchy datum's P and the solve's QP, once per load: beta's
        # second solution and adjoint-check's march (PQ and P* Q*, which
        # have QP's fields) reuse them, and a second load, like a second
        # grid, builds its own
        from prehyp import cauchy

        built = []
        real = cauchy._right_hand_side
        monkeypatch.setattr(cauchy, "_right_hand_side", lambda *args: built.append(args[0]) or real(*args))
        for _ in range(2):
            cfg = load_config_text(CURVED_CFG)
            for battery in (cli.run_solve, cli.run_adjoint_check, cli.run_beta):
                battery(cfg, 0)
            assert len(built) == 2
            built.clear()
        cli.run_solve(cfg, 0, 64)
        assert len(built) == 2

    def test_a_curved_round_compiles_each_march_tape_once(self, monkeypatch):
        # the round of the curved_dirac benchmark: the march tapes of P's
        # datum and of QP once each (15 compiles before, each solve and
        # the dual march building its own), f's forcing and psi's once
        # each; apply_operator's tapes (P, Q and Q* twice) and each
        # sampled section's (f and psi) are compiled per call.  The
        # synthesized psi mirrors f through 0, so the two compile equal
        # tapes: 6 distinct
        from prehyp.expr import Tape, pretty

        compiles = []
        real = Tape.__init__

        def init(self, asts, xs):
            compiles.append((tuple(pretty(a) for a in asts), np.asarray(xs).tobytes()))
            real(self, asts, xs)

        monkeypatch.setattr(Tape, "__init__", init)
        cfg = load_config_text(CURVED_CFG)
        for battery in (cli.run_check_pair, cli.run_solve, cli.run_adjoint_check, cli.run_beta):
            battery(cfg, 0)
        assert (len(compiles), len(set(compiles))) == (10, 6)


GENERAL_CFG = CURVED_CFG.replace("1+0.1*sin(t)", "1+0.3*x").replace("1+0.3*cos(2*x)", "1+0.3*t")


@pytest.mark.parametrize("text,contracts", [(CURVED_CFG, False), (GENERAL_CFG, True)], ids=["readme", "general"])
def test_adjoint_check_marches_contract_only_on_the_general_metric(monkeypatch, text, contracts):
    # on the README metric the adjoint's divergence term folds to 0 and
    # every field of PQ and P*Q* is s Id; the general metric's P*Q* has
    # diagonal fields with two different entries, contracted entry by
    # entry.  Applying Q and Q* to a solution contracts their off-diagonal
    # principal fields on both metrics, outside the marches, so the counter
    # is seen to count
    from prehyp import bundle_ops, cauchy

    runs, marching = {True: 0, False: 0}, []
    real_contraction, real_march = bundle_ops._contraction, cauchy._march

    def binding(w, out):
        run = real_contraction(w, out)

        def counted(c):
            runs[bool(marching)] += 1
            return run(c)

        return counted

    def march(*args):
        marching.append(True)
        try:
            return real_march(*args)
        finally:
            marching.pop()

    monkeypatch.setattr(bundle_ops, "_contraction", binding)
    monkeypatch.setattr(cauchy, "_march", march)
    _, failures = cli.run_adjoint_check(load_config_text(text), 0)
    assert failures == [] and bool(runs[True]) == contracts and runs[False] > 0


class TestVerifiedWhereRead:
    """A Cauchy solve measures its residual and leak only where a report
    reads them."""

    @pytest.fixture
    def verifications(self, monkeypatch):
        """The names of the verification steps cauchy calls."""
        from prehyp import cauchy

        calls = []
        for name in ("apply_operator", "support_leak"):
            real = getattr(cauchy, name)
            monkeypatch.setattr(cauchy, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
        return calls

    def test_beta_and_isometry_verify_no_solve(self, verifications):
        cfg = load_config_text(SMALL_DIRAC_CFG)
        cli.run_solve(cfg, 0)
        assert verifications == ["apply_operator", "support_leak"]
        verifications.clear()
        for battery in (cli.run_beta, cli.run_isometry):
            battery(cfg, 0)
        assert verifications == []

    def test_round_trip_verifies_no_solve(self, verifications):
        # it checks the pair, and reads neither solve's residual nor leak
        from prehyp.cauchy import compatibility_round_trip
        from prehyp.geometry import CauchyLine

        scn = load_config_text(SMALL_DIRAC_CFG).scenario()
        compatibility_round_trip(scn.p, scn.q, scn.metric, scn.data, CauchyLine(0.0), CauchyLine(0.05), scn.grid)
        assert verifications == []


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
    @pytest.mark.parametrize("argv", [["convergence", "solve"]])
    def test_coarse_rung_margin_is_a_config_error(self, tmp_path, capsys, argv):
        # nx = 256 passes validation, but its nx/4 rung keeps no causal margin
        cfg = write_cfg(tmp_path, DIRAC_CFG)
        assert main(argv + ["--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert "nx = 64" in err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("metric", [("1", "1"), ("1+0.1*sin(t)", "1+0.3*cos(2*x)")], ids=["flat", "readme"])
    def test_coarse_rung_fails_convergence_alone(self, tmp_path, capsys, scenario_text, metric):
        # the same rung in verify-all fails convergence only: every other
        # battery reports its own verdict, and all of them pass at nx = 256
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, scenario_text(1, 3, 256, metric, str(out)))
        assert main(["verify-all", "--config", cfg]) == 2
        report = json.loads((out / "report.json").read_text())
        assert sorted(report["results"]) == sorted(set(cli.SUBCOMMANDS) - {"convergence", "verify-all"})
        (failure,) = report["failures"]
        assert failure.startswith("convergence solve: ")
        assert failure.endswith("initial_data.window: causal margin violated at nx = 64")
        assert f"  {failure}" in capsys.readouterr().out


def test_verify_all_on_a_circle(tmp_path, scenario_text):
    # a curved circle metric; at nx = 128 its gates fail on resolution
    text = scenario_text(1, 3, 256, ("1+0.1*sin(t)", "1+0.3*cos(pi*x)"), str(tmp_path / "out"))
    assert "topology = line" in text
    cfg = write_cfg(tmp_path, text.replace("topology = line", "topology = circle"))
    assert main(["verify-all", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["scenario"]["spacetime"]["topology"] == "circle"
    assert "convergence solve" in report["results"]


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
        # then adjoint-check's source cones; the dual source mirrors the
        # synthesized source onto its own box, whose cones are kept
        assert [s[2] for s in sweeps] == ["both", "future", "past", "future", "past"]

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

    # a dual source late in the run near the x-boundary: its J+ stays on
    # the chart, its J- leaves it
    DUAL_NEAR_EDGE = SOURCE + SOURCE.replace("[source]", "[dual_source]").replace(
        "window_center = 0.0\nwindow_halfwidth = 0.05\nwindow_steepness = 2.5",
        "window_center = 0.45\nwindow_halfwidth = 0.05\nwindow_steepness = 10",
    ).replace("t_window_center = 0.0", "t_window_center = 0.2")

    @pytest.mark.parametrize("argv", [["adjoint-check"], ["verify-all"]])
    def test_dual_source_cone_leaves_the_chart(self, tmp_path, capsys, monkeypatch, argv):
        # adjoint-check used to march with it and report its gates (exit 0
        # or 2); now no march starts
        from prehyp import cauchy

        marches = []
        real = cauchy._march
        monkeypatch.setattr(cauchy, "_march", lambda *args: marches.append(1) or real(*args))
        text = SMALL_DIRAC_CFG + self.DUAL_NEAR_EDGE
        code = self.run_main(tmp_path, argv, text)
        assert code == 1
        err = capsys.readouterr().err
        assert err == (
            f"config error: line {line_of(text, 'window_center = 0.45')}: dual_source.window: "
            "the dual_source's causal future or past leaves the chart at nx = 128\n"
        )
        assert not (tmp_path / "out" / "report.json").exists()
        assert marches == []

    def test_greens_does_not_check_the_dual_source(self):
        results, _ = cli.run_greens(load_config_text(SMALL_DIRAC_CFG + self.DUAL_NEAR_EDGE), 0)
        assert set(results) == {"retarded", "advanced"}

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
