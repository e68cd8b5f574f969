import numpy as np
import pytest

from prehyp.bundle_ops import FirstOrderOperator, apply_operator
from prehyp.cauchy import (
    PairCheckError,
    PrenormalHyperbolicityError,
    SolverBlowupError,
    compatibility_round_trip,
    normal_derivative_data,
    restrict,
    solve_cauchy,
    solve_first_order_direct,
)
from prehyp.geometry import CauchyLine, Chart1p1, DiagonalMetric, minkowski
from prehyp.grids import CauchyData, build_grid, d_x, make_cauchy_data, plateau_window
from prehyp.qft_dirac import DiracModel, build_dirac_pair

GAMMA_T = np.array([[0.0, 1.0], [1.0, 0.0]])
GAMMA_X = np.array([[0.0, -1.0], [1.0, 0.0]])


class TestNormalDerivativeData:
    def test_transport_gives_minus_slope(self, mink, grid_medium):
        p = FirstOrderOperator.build([[1.0]], [[1.0]], [[0.0]])
        phi0 = make_cauchy_data(grid_medium, ["x"], 0.0)
        psi0 = normal_derivative_data(p, mink, phi0)
        expected = -d_x(phi0.values, grid_medium)
        inside = (grid_medium.xs >= phi0.support[0]) & (grid_medium.xs <= phi0.support[1])
        assert np.allclose(psi0.values[inside], expected[inside], atol=1e-12)
        # on the plateau the windowed datum is exactly x, so the slope is 1
        plateau = np.abs(grid_medium.xs) <= 0.04
        assert np.allclose(psi0.values[plateau, 0], -1.0, atol=1e-10)

    def test_massive_plateau_value(self, mink, grid_medium):
        m = 1.4
        p = FirstOrderOperator.build(GAMMA_T, GAMMA_X, m * np.eye(2))
        phi0 = make_cauchy_data(grid_medium, ["1", "0"], 0.0)
        psi0 = normal_derivative_data(p, mink, phi0)
        # where the window is flat: Psi_0 = -(gamma^t)^-1 m Phi_0 = -m (0, 1)
        plateau = np.abs(grid_medium.xs) <= 0.04
        assert np.allclose(psi0.values[plateau, 0], 0.0, atol=1e-10)
        assert np.allclose(psi0.values[plateau, 1], -m, atol=1e-10)

    def test_zero_data(self, mink, grid_medium):
        p = FirstOrderOperator.build(GAMMA_T, GAMMA_X, np.eye(2))
        phi0 = make_cauchy_data(grid_medium, ["0", "0"], 0.0)
        psi0 = normal_derivative_data(p, mink, phi0)
        assert np.max(np.abs(psi0.values)) == 0.0

    def test_support_preserved(self, mink, grid_medium):
        p = FirstOrderOperator.build(GAMMA_T, GAMMA_X, np.eye(2))
        phi0 = make_cauchy_data(grid_medium, ["sin(3*x)", "1"], 0.0)
        psi0 = normal_derivative_data(p, mink, phi0)
        assert psi0.support == phi0.support
        psi0.validate_support()

    def test_singular_time_coefficient_rejected(self, mink, grid_medium):
        p = FirstOrderOperator.build([[0.0]], [[1.0]], [[0.0]])
        phi0 = make_cauchy_data(grid_medium, ["1"], 0.0)
        with pytest.raises(PrenormalHyperbolicityError):
            normal_derivative_data(p, mink, phi0)


def circle_setup(nx=512, m=1.0):
    chart = Chart1p1(-0.3, 0.3, -1.0, 1.0, topology="circle")
    g = minkowski(chart)
    grid = build_grid(chart, g, nx)
    model = DiracModel(mass=m)
    p, q = build_dirac_pair(model, g)
    return chart, g, grid, model, p, q


class TestSolveOracles:
    def test_massless_components_ride_the_characteristics(self, chart, mink):
        grid = build_grid(chart, mink, 512)
        p, q = build_dirac_pair(DiracModel(mass=0.0), mink)
        phi0 = make_cauchy_data(grid, ["1", "0.5"], 0.0)
        phi, report = solve_cauchy(p, q, mink, phi0, grid)

        def datum_profile(x):
            return plateau_window(x, 0.0, 0.05, 2.5)

        j = grid.nt - 1
        t = float(grid.ts[j])
        # first component moves right, second moves left
        ref1 = datum_profile(grid.xs - t)
        ref2 = 0.5 * datum_profile(grid.xs + t)
        err1 = np.max(np.abs(phi.values[j, :, 0] - ref1))
        err2 = np.max(np.abs(phi.values[j, :, 1] - ref2))
        assert err1 < 1e-3 and err2 < 1e-3
        assert report.support_leak < 1e-7

    def test_zero_momentum_mass_rotation_on_circle(self):
        _, g, grid, model, p, q = circle_setup(nx=128, m=1.0)
        values = np.zeros((grid.nx, 2), dtype=complex)
        values[:, 0] = 1.0
        phi0 = CauchyData(grid, 0.0, values, (-1.0, 1.0))
        phi, _ = solve_cauchy(p, q, g, phi0, grid)
        # spatially constant data obeys d_t Phi = -i m gamma^t Phi, so
        # Phi(t) = (cos(mt), -i sin(mt))
        for j in (0, grid.nt // 2, grid.nt - 1):
            t = float(grid.ts[j])
            ref = np.array([np.cos(t), -1j * np.sin(t)])
            assert np.max(np.abs(phi.values[j] - ref)) < 1e-8

    def test_plane_wave_dispersion_on_circle(self):
        m = 1.0
        _, g, grid, model, p, q = circle_setup(nx=512, m=m)
        kappa = np.pi  # lowest wavenumber on the period-2 circle
        omega = np.sqrt(kappa**2 + m**2)
        mode = np.exp(1j * kappa * grid.xs)
        values = np.zeros((grid.nx, 2), dtype=complex)
        values[:, 0] = mode
        phi0 = CauchyData(grid, 0.0, values, (-1.0, 1.0))
        phi, _ = solve_cauchy(p, q, g, phi0, grid)
        # d_t Phi = M Phi with M^2 = -omega^2, hence
        # Phi(t) = cos(omega t) Phi_0 + sin(omega t)/omega M Phi_0
        big_m = -GAMMA_T @ (1j * kappa * GAMMA_X + 1j * m * np.eye(2))
        v0 = np.array([1.0, 0.0], dtype=complex)
        j = grid.nt - 1
        t = float(grid.ts[j])
        ref_v = np.cos(omega * t) * v0 + np.sin(omega * t) / omega * (big_m @ v0)
        ref = mode[:, None] * ref_v[None, :]
        assert np.max(np.abs(phi.values[j] - ref)) < 5e-3

    def test_zero_data_gives_zero_solution(self, mink, grid_medium):
        p, q = build_dirac_pair(DiracModel(mass=1.0), mink)
        phi0 = make_cauchy_data(grid_medium, ["0", "0"], 0.0)
        phi, report = solve_cauchy(p, q, mink, phi0, grid_medium)
        assert phi.linf() == 0.0
        assert report.residual_linf == 0.0

    def test_solver_is_linear(self, mink, grid_medium):
        p, q = build_dirac_pair(DiracModel(mass=1.0), mink)
        a = make_cauchy_data(grid_medium, ["1", "0"], 0.0)
        b = make_cauchy_data(grid_medium, ["x", "1"], 0.0)
        combo = CauchyData(grid_medium, 0.0, 2.0 * a.values + 3j * b.values, a.support)
        sol_a, _ = solve_cauchy(p, q, mink, a, grid_medium)
        sol_b, _ = solve_cauchy(p, q, mink, b, grid_medium, check_pair=False)
        sol_c, _ = solve_cauchy(p, q, mink, combo, grid_medium, check_pair=False)
        gap = np.max(np.abs(sol_c.values - 2.0 * sol_a.values - 3j * sol_b.values))
        assert gap < 1e-12 * max(sol_c.linf(), 1.0)

    def test_non_pair_rejected(self, mink, grid_medium):
        p = FirstOrderOperator.build([[1.0]], [[1.0]], [[0.0]])
        phi0 = make_cauchy_data(grid_medium, ["1"], 0.0)
        with pytest.raises(PairCheckError):
            solve_cauchy(p, p, mink, phi0, grid_medium)


class TestDirectVsReduced:
    def test_agreement_and_convergence(self, chart, mink):
        p, q = build_dirac_pair(DiracModel(mass=1.0), mink)

        def gap(nx):
            grid = build_grid(chart, mink, nx)
            phi0 = make_cauchy_data(grid, ["1", "0.5"], 0.0)
            reduced, _ = solve_cauchy(p, q, mink, phi0, grid, check_pair=False)
            direct = solve_first_order_direct(p, mink, phi0, grid)
            return float(np.max(np.abs(reduced.values - direct.values)))

        coarse, fine = gap(128), gap(256)
        assert fine < 5e-3
        assert coarse / fine > 3.0  # both paths converge to the same solution


class TestRestrictAndRoundTrip:
    def test_restrict_support_and_values(self, mink, grid_medium):
        p, q = build_dirac_pair(DiracModel(mass=0.5), mink)
        phi0 = make_cauchy_data(grid_medium, ["1", "0"], 0.0)
        phi, _ = solve_cauchy(p, q, mink, phi0, grid_medium)
        data_prime = restrict(phi, CauchyLine(0.2), mink, phi0)
        lo, hi = data_prime.support
        # the shadow widens by the elapsed time (unit light speed) plus the
        # small scheme inflation
        assert lo == pytest.approx(phi0.support[0] - 0.2, abs=0.05)
        assert hi == pytest.approx(phi0.support[1] + 0.2, abs=0.05)
        data_prime.validate_support()

    def test_round_trip_returns_to_data(self, chart, mink):
        grid = build_grid(chart, mink, 512)
        p, q = build_dirac_pair(DiracModel(mass=1.0), mink)
        # a steeper window keeps the restricted datum's shadow clear of the
        # chart boundary for the second solve
        phi0 = make_cauchy_data(grid, ["1", "0.5"], 0.0, steepness=5.0)
        rep = compatibility_round_trip(
            p, q, mink, phi0, CauchyLine(0.0), CauchyLine(0.1), grid
        )
        assert rep.round_trip_error < 5e-3

    def test_round_trip_on_curved_metric(self, chart):
        g = DiagonalMetric("1+0.1*sin(t)", "1+0.3*cos(2*x)", chart)
        grid = build_grid(chart, g, 256)
        p, q = build_dirac_pair(DiracModel(mass=0.5), g)
        phi0 = make_cauchy_data(grid, ["1", "0"], 0.0, steepness=10.0)
        rep = compatibility_round_trip(
            p, q, g, phi0, CauchyLine(0.0), CauchyLine(0.05), grid
        )
        assert rep.round_trip_error < 2e-2


class TestReports:
    def test_residual_and_trace_small(self, chart, mink):
        grid = build_grid(chart, mink, 512)
        p, q = build_dirac_pair(DiracModel(mass=1.0), mink)
        phi0 = make_cauchy_data(grid, ["1", "0"], 0.0)
        phi, report = solve_cauchy(p, q, mink, phi0, grid)
        assert report.trace_defect < 2e-3  # (P Phi)|_Sigma -> 0 by construction
        assert report.residual_l2 < 1e-2
        assert report.support_leak < 1e-7

    def test_one_two_way_shadow_sweep_per_solve(self, chart, mink, monkeypatch):
        # the margin check's sweep is the one the support leak is measured in
        from prehyp import cauchy, geometry, grids

        directions = []
        real = geometry.causal_shadow

        def counting(metric, seed, t0, direction="future", *args, **kwargs):
            directions.append(direction)
            return real(metric, seed, t0, direction, *args, **kwargs)

        for mod in (geometry, grids, cauchy):
            monkeypatch.setattr(mod, "causal_shadow", counting, raising=False)
        grid = build_grid(chart, mink, 128)
        p, q = build_dirac_pair(DiracModel(mass=1.0), mink)
        solve_cauchy(p, q, mink, make_cauchy_data(grid, ["1", "0"], 0.0), grid)
        assert directions.count("both") == 1


class TestBlowup:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_cfl_violation_raises_at_the_first_non_finite_level(self, chart):
        # max_light_speed samples a lattice that misses the narrow dip in
        # beta, so this grid breaks the CFL limit about 5x
        beta = "1-0.95*exp(-20000*(x-0.5037)^2)"
        metric = DiagonalMetric("1", beta, chart)
        grid = build_grid(chart, metric, 512, cfl=0.9)
        p = FirstOrderOperator.build([["1"]], [[f"1/({beta})"]], [[0.0]])
        q = FirstOrderOperator.build([["1"]], [[f"-1/({beta})"]], [[0.0]])
        phi0 = make_cauchy_data(grid, ["1"], 0.0)
        with pytest.raises(SolverBlowupError) as info:
            solve_cauchy(p, q, metric, phi0, grid)
        err = info.value
        assert phi0.level < err.level < grid.nt
        assert err.t == grid.ts[err.level]
        assert f"time level {err.level} " in str(err)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_in_the_longer_backward_half(self, chart):
        # from t0 near the top of the chart the short forward half stays
        # finite; the backward half, stepped alone once the forward one is
        # done, is reported at its own first non-finite level
        beta = "1-0.95*exp(-20000*(x-0.5037)^2)"
        metric = DiagonalMetric("1", beta, chart)
        grid = build_grid(chart, metric, 512, cfl=0.9)
        p = FirstOrderOperator.build([["1"]], [[f"1/({beta})"]], [[0.0]])
        q = FirstOrderOperator.build([["1"]], [[f"-1/({beta})"]], [[0.0]])
        phi0 = make_cauchy_data(grid, ["1"], 0.25, steepness=10.0)
        assert grid.nt - 1 - phi0.level < phi0.level
        with pytest.raises(SolverBlowupError) as info:
            solve_cauchy(p, q, metric, phi0, grid)
        err = info.value
        assert err.level < phi0.level
        assert err.t == grid.ts[err.level]
        assert f"time level {err.level} " in str(err)
