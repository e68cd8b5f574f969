import dataclasses

import numpy as np
import pytest

from prehyp import cli
from prehyp.bundle_ops import FirstOrderOperator, MatrixField, is_complementary_pair, principal_symbol_1
from prehyp.cauchy import solve_cauchy, solve_cauchy_plain
from prehyp.config import load_config_text
from prehyp.geometry import CauchyLine, DiagonalMetric
from prehyp.grids import GridSection, build_grid, make_cauchy_data
from prehyp.qft_dirac import (
    GAMMA0,
    GAMMA1,
    DiracModel,
    beta_sigma,
    build_dirac_pair,
    data_space_isometry_check,
    dirac_adjoint,
    dirac_current,
    hypersurface_independence,
)


class TestGammaConstants:
    def test_clifford_relations(self):
        eye = np.eye(2)
        for mat in (GAMMA0 @ GAMMA0 - eye, GAMMA1 @ GAMMA1 + eye, GAMMA0 @ GAMMA1 + GAMMA1 @ GAMMA0,
                    GAMMA0 - GAMMA0.conj().T):
            assert np.max(np.abs(mat)) <= 1e-14

    def test_constants_are_read_only(self):
        for gamma in (GAMMA0, GAMMA1):
            with pytest.raises(ValueError):
                gamma[0, 0] = 1.0


class TestAdjointAndCurrent:
    def test_adjoint_swaps_components(self):
        assert np.allclose(dirac_adjoint(np.array([1.0, 0.0])), [0.0, 1.0])
        assert np.allclose(dirac_adjoint(np.array([0.0, 1j])), [-1j, 0.0])

    def test_adjoint_is_antilinear(self):
        v = np.array([0.3 + 0.1j, -0.2 + 0.7j])
        c = 2.0 - 3.0j
        assert np.allclose(dirac_adjoint(c * v), np.conj(c) * dirac_adjoint(v))

    def test_adjoint_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            dirac_adjoint(np.array([1.0, 0.0, 0.0]))

    def test_time_current_is_probability_density(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        j_t = dirac_current(v, v, "t")
        assert np.allclose(j_t, np.sum(np.abs(v) ** 2, axis=-1))
        assert np.all(j_t.real > 0)

    def test_current_sesquilinear(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        c = 1.5 - 0.5j
        for index in ("t", "x"):
            assert dirac_current(c * a, b, index) == pytest.approx(
                np.conj(c) * dirac_current(a, b, index)
            )
            assert dirac_current(a, c * b, index) == pytest.approx(
                c * dirac_current(a, b, index)
            )


class TestBetaSigma:
    def constant_section(self, grid, vec):
        vals = np.broadcast_to(np.asarray(vec, dtype=complex), (grid.nt, grid.nx, 2))
        return GridSection(grid, np.array(vals))

    def test_positive_on_nonzero_sections(self, mink, grid_small):
        phi = self.constant_section(grid_small, [1.0, 0.5j])
        val = beta_sigma(phi, phi, CauchyLine(0.0), mink)
        assert val.imag == pytest.approx(0.0, abs=1e-14)
        # integrand is 1.25 over a width-2 line with unit measure
        assert val.real == pytest.approx(2.5, rel=1e-12)

    def test_scales_with_hypersurface_measure(self, chart):
        g2 = DiagonalMetric("1", "2", chart)
        grid = build_grid(chart, g2, 128)
        phi = self.constant_section(grid, [1.0, 0.0])
        val = beta_sigma(phi, phi, CauchyLine(0.0), g2)
        assert val.real == pytest.approx(4.0, rel=1e-12)  # 2 (width) * 2 (measure)

    def test_hermitian_symmetry(self, mink, grid_small):
        rng = np.random.default_rng(2)
        a = GridSection(
            grid_small,
            rng.normal(size=(grid_small.nt, grid_small.nx, 2))
            + 1j * rng.normal(size=(grid_small.nt, grid_small.nx, 2)),
        )
        b = GridSection(
            grid_small,
            rng.normal(size=(grid_small.nt, grid_small.nx, 2))
            + 1j * rng.normal(size=(grid_small.nt, grid_small.nx, 2)),
        )
        lhs = beta_sigma(a, b, CauchyLine(0.0), mink)
        rhs = np.conj(beta_sigma(b, a, CauchyLine(0.0), mink))
        assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)

    def test_disjoint_supports_give_zero(self, mink, grid_medium):
        left = make_cauchy_data(grid_medium, ["1", "0"], 0.0, center=-0.5, steepness=10.0)
        right = make_cauchy_data(grid_medium, ["0", "1"], 0.0, center=0.5, steepness=10.0)
        a = GridSection(grid_medium, np.broadcast_to(left.values, (grid_medium.nt,) + left.values.shape).copy())
        b = GridSection(grid_medium, np.broadcast_to(right.values, (grid_medium.nt,) + right.values.shape).copy())
        assert abs(beta_sigma(a, b, CauchyLine(0.0), mink)) < 1e-14


class TestConservation:
    def drift(self, chart, metric, nx, mass=1.0):
        grid = build_grid(chart, metric, nx)
        p, q = build_dirac_pair(DiracModel(mass=mass), metric)
        phi0 = make_cauchy_data(grid, ["1", "0.5"], 0.0)
        phi = solve_cauchy_plain(p, q, metric, phi0, grid)
        levels = [float(grid.ts[int(f * (grid.nt - 1))]) for f in (0.1, 0.3, 0.5, 0.7, 0.9)]
        rep = hypersurface_independence(phi, phi, levels, metric)
        return rep

    def test_on_shell_conserved_and_positive(self, chart, mink):
        rep = self.drift(chart, mink, 256)
        assert rep.positivity_margin > 0
        assert rep.hypersurface_drift < 1e-3

    def test_drift_converges_second_order(self, chart, mink):
        coarse = self.drift(chart, mink, 128).hypersurface_drift
        fine = self.drift(chart, mink, 256).hypersurface_drift
        assert coarse / fine > 3.0

    def test_zero_section_has_zero_drift(self, mink, grid_small):
        z = GridSection.zeros(grid_small, 2)
        rep = hypersurface_independence(z, z, [0.0, 0.1], mink)
        assert rep.hypersurface_drift == 0.0
        assert rep.value == 0

    def test_off_shell_section_drifts(self, chart, mink):
        # freeze the initial line in time: not a solution, so the product
        # picks up O(1) dependence on the hypersurface
        grid = build_grid(chart, mink, 256)
        p, q = build_dirac_pair(DiracModel(mass=1.0), mink)
        phi0 = make_cauchy_data(grid, ["1", "0.5"], 0.0)
        phi = solve_cauchy_plain(p, q, mink, phi0, grid)
        frozen = GridSection(
            grid, np.broadcast_to(phi0.values, phi.values.shape).copy()
        )
        mixed = hypersurface_independence(phi, frozen, [0.0, 0.2], mink)
        assert mixed.hypersurface_drift > 1e-2


class TestBuildPair:
    def test_minkowski_pair_passes_predicate(self, mink):
        p, q = build_dirac_pair(DiracModel(mass=1.0), mink)
        assert is_complementary_pair(p, q, mink).passed

    def test_curved_metric_pair(self, chart):
        g = DiagonalMetric("1+0.1*sin(t)", "1+0.3*cos(2*x)", chart)
        p, q = build_dirac_pair(DiracModel(mass=0.5), g)
        rep = is_complementary_pair(p, q, g)
        assert rep.passed
        # det sigma_P(xi) = -g(xi, xi) pointwise
        pt = (0.1, -0.4)
        xi = (0.7, 1.3)
        det = np.linalg.det(principal_symbol_1(p, pt, xi))
        assert det == pytest.approx(-g.inverse_on_covector(pt, xi), abs=1e-10)


class TestIsometry:
    def test_gram_matrices_match_across_hypersurfaces(self, chart, mink):
        grid = build_grid(chart, mink, 256)
        model = DiracModel(mass=1.0)
        p, q = build_dirac_pair(model, mink)
        solutions = [
            solve_cauchy(p, q, mink, make_cauchy_data(grid, comps, 0.0), grid)[0]
            for comps in (["1", "0"], ["x", "1"], ["cos(3*x)", "0.5"])
        ]
        rep = data_space_isometry_check(solutions, CauchyLine(0.0), CauchyLine(0.15), mink)
        assert rep.gram_mismatch < 1e-2
        assert rep.min_gram_eigenvalue > 0
        assert rep.gram_sigma.shape == (3, 3)
        # Gram matrices are Hermitian up to quadrature error
        assert np.max(np.abs(rep.gram_sigma - rep.gram_sigma.conj().T)) < 1e-10


# The general metric has d_x alpha != 0 and d_t beta != 0, so the spin
# connection of the Dirac pair does not vanish; its light speed alpha/beta
# reaches 1.43, so the source windows are narrow enough in t for the
# sources' causal cones to stay in the chart.
GENERAL_METRIC = ("1+0.3*x", "1+0.3*t")
SPIN_METRICS = {"general": GENERAL_METRIC, "x_only": ("1+0.3*x", "1"), "t_only": ("1", "1+0.3*t")}

SPIN_CFG = """
[spacetime]
alpha = {alpha}
beta = {beta}
t_range = [-0.3, 0.3]
x_range = [-1, 1]

[operator_P]
preset = dirac_massive
mass = 1.0

[grid]
nx = {nx}
cfl = 0.4

[initial_data]
components = [1, 0.5]
window_center = 0.0
window_halfwidth = 0.05
window_steepness = 2.5

[source]
components = [1, 0.5]
window_center = 0.0
window_halfwidth = 0.05
window_steepness = 5
t_window_center = 0.0
t_window_halfwidth = 0.02
t_window_steepness = 20

[dual_source]
components = [0.5, 1]
window_center = 0.05
window_halfwidth = 0.05
window_steepness = 5
t_window_center = 0.02
t_window_halfwidth = 0.02
t_window_steepness = 20

[output]
directory = out
formats = [json]
"""


def spin_cfg(metric, nx):
    return load_config_text(SPIN_CFG.format(alpha=metric[0], beta=metric[1], nx=nx))


def beta_drifts(cfg, nxs=(128, 256)):
    return [cli.run_beta(cfg, 0, nx)[0]["hypersurface_drift"] for nx in nxs]


class TestSpinConnection:
    @pytest.mark.parametrize(
        "alpha,beta", [("1", "1"), ("1+0.1*sin(t)", "1+0.3*cos(2*x)")], ids=["flat", "readme"]
    )
    def test_b_is_the_mass_term_where_the_spin_term_vanishes(self, chart, alpha, beta):
        # the spin term is added only when it does not fold to 0: adding a
        # zero field would change the sign of Q's zeros, and with it the
        # report's echo; repr shows the sign of every zero
        p, q = build_dirac_pair(DiracModel(mass=1.0), DiagonalMetric(alpha, beta, chart))
        mass = MatrixField.from_constant(1j * np.eye(2))
        assert repr(p.b.entries) == repr(mass.entries)
        assert repr(q.b.entries) == repr((-mass).entries)

    def test_spin_term_on_the_general_metric(self, chart):
        # (gamma0 d_t beta + gamma1 d_x alpha) / (2 alpha beta), in P and Q alike
        g = DiagonalMetric(*GENERAL_METRIC, chart)
        p, q = build_dirac_pair(DiracModel(mass=1.0), g)
        for t, x in ((0.1, -0.4), (-0.25, 0.7)):
            spin = 0.3 * (GAMMA0 + GAMMA1) / (2 * (1 + 0.3 * x) * (1 + 0.3 * t))
            assert np.allclose(p.b.at(t, x), spin + 1j * np.eye(2), rtol=0, atol=1e-14)
            assert np.allclose(q.b.at(t, x), spin - 1j * np.eye(2), rtol=0, atol=1e-14)
        assert is_complementary_pair(p, q, g).passed

    @pytest.mark.parametrize("metric", SPIN_METRICS.values(), ids=SPIN_METRICS.keys())
    def test_beta_converges(self, metric):
        coarse, fine = beta_drifts(spin_cfg(metric, 256))
        assert fine <= cli.TOLERANCES["beta_drift"]
        assert np.log2(coarse / fine) >= cli.TOLERANCES["min_order"]

    def test_bare_pair_drifts(self):
        # negative control: without the spin term the current is not
        # conserved on the general metric, and beta's drift stays large
        cfg = spin_cfg(GENERAL_METRIC, 256)
        p, _ = cfg.pair
        mass = MatrixField.from_constant(1j * cfg.mass * np.eye(2))
        bare = dataclasses.replace(cfg, pair=tuple(FirstOrderOperator(2, p.a_t, p.a_x, b) for b in (mass, -mass)))
        (drift,) = beta_drifts(bare, (256,))
        assert drift > cli.TOLERANCES["beta_drift"]

    def test_isometry_on_the_general_metric(self):
        assert cli.run_isometry(spin_cfg(GENERAL_METRIC, 256), 0)[1] == []

    def test_verify_all_on_the_general_metric(self):
        # nx 512: the ladder's nx/4 rung is the coarsest that keeps the
        # initial window's causal margin
        report = cli.run("verify-all", spin_cfg(GENERAL_METRIC, 512), seed=1)[0]
        assert report["failures"] == []
        assert report["passed"]
