import numpy as np
import pytest

from prehyp.bundle_ops import (
    FirstOrderOperator,
    MatrixField,
    RankMismatchError,
    SecondOrderOperator,
    apply_operator,
    compose,
    formal_adjoint,
    is_complementary_pair,
    is_normally_hyperbolic,
    pairing,
    principal_symbol_1,
    principal_symbol_2,
    symbol_invertibility,
)
from prehyp.expr import uses_var
from prehyp.geometry import Chart1p1, DiagonalMetric
from prehyp.grids import GridSection, build_grid, plateau_window

GAMMA_T = np.array([[0.0, 1.0], [1.0, 0.0]])
GAMMA_X = np.array([[0.0, -1.0], [1.0, 0.0]])


def dirac_like(mass_matrix) -> FirstOrderOperator:
    """gamma^t d_t + gamma^x d_x + M with an explicit constant mass block."""
    return FirstOrderOperator.build(GAMMA_T, GAMMA_X, mass_matrix)


def transport() -> FirstOrderOperator:
    return FirstOrderOperator.build([[1.0]], [[1.0]], [[0.0]])


class TestMatrixField:
    def test_constant_algebra_stays_constant(self):
        a = MatrixField.from_constant(np.eye(2))
        b = MatrixField.from_constant(2 * np.eye(2))
        assert (a + b).is_constant
        assert (a @ b).is_constant
        assert (-a).is_constant
        assert np.allclose((a @ b).constant, 2 * np.eye(2))

    def test_from_exprs_flags(self):
        f = MatrixField.from_exprs([["x", "0"], ["0", "1"]])
        assert not f.is_constant

    def test_eval_and_at(self):
        f = MatrixField.from_exprs([["t+x"]])
        assert f.at(0.25, 0.5)[0, 0] == pytest.approx(0.75)
        xs = np.array([0.0, 1.0])
        assert np.allclose(f.eval(1.0, xs)[:, 0, 0], [1.0, 2.0])

    def test_coefficient_derivatives(self):
        # derivatives are exact: no step size, no truncation error
        f = MatrixField.from_exprs([["t*x", "sin(t)"], ["x^3", "2"]])
        assert f.d_dt().at(0.0, 0.7)[0, 0] == 0.7
        assert f.d_dx().at(0.3, 0.0)[0, 0] == 0.3
        assert f.d_dt().at(0.4, 0.0)[0, 1] == np.cos(0.4)
        assert f.d_dx().at(0.0, 0.5)[1, 0] == 0.75
        assert f.d_dx().d_dx().at(0.0, 0.5)[1, 0] == 3.0
        assert not uses_var(MatrixField.from_exprs([["t*x"]]).d_dt().entries[0][0], "t")
        assert MatrixField.from_constant([[5.0]]).d_dx().is_constant

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            MatrixField.from_exprs([["1", "0"]])


class TestPrincipalSymbols:
    def test_transport_symbol(self):
        p = transport()
        assert principal_symbol_1(p, (0.0, 0.0), (1.0, 0.0))[0, 0] == 1.0
        assert principal_symbol_1(p, (0.0, 0.0), (2.0, 3.0))[0, 0] == 5.0

    def test_mass_term_does_not_enter(self):
        assert np.allclose(
            principal_symbol_1(dirac_like(7.0 * np.eye(2)), (0.0, 0.0), (1.0, 1.0)),
            principal_symbol_1(dirac_like(np.zeros((2, 2))), (0.0, 0.0), (1.0, 1.0)),
        )

    def test_second_order_symbol(self):
        wave = SecondOrderOperator(
            1,
            MatrixField.from_constant([[1.0]]),
            MatrixField.zero(1),
            MatrixField.from_constant([[-1.0]]),
            MatrixField.zero(1),
            MatrixField.zero(1),
            MatrixField.zero(1),
        )
        assert principal_symbol_2(wave, (0.0, 0.0), (1.0, 1.0))[0, 0] == 0.0
        assert principal_symbol_2(wave, (0.0, 0.0), (1.0, 0.0))[0, 0] == 1.0

    def test_symbol_multiplicativity(self):
        p = dirac_like(1.5 * np.eye(2))
        q = dirac_like(-1.5 * np.eye(2))
        pq = compose(p, q)
        rng = np.random.default_rng(7)
        for _ in range(20):
            xi = tuple(rng.normal(size=2))
            lhs = principal_symbol_2(pq, (0.1, -0.2), xi)
            rhs = principal_symbol_1(p, (0.1, -0.2), xi) @ principal_symbol_1(q, (0.1, -0.2), xi)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestCompose:
    def test_dt_squared(self):
        dt_op = FirstOrderOperator.build([[1.0]], [[0.0]], [[0.0]])
        l = compose(dt_op, dt_op)
        assert l.c_tt.constant[0, 0] == 1.0
        for f in (l.c_tx, l.c_xx, l.d_t, l.d_x, l.e):
            assert np.allclose(f.at(0.2, 0.3), 0.0, atol=1e-12)

    def test_anticommuting_gammas_prune_the_mixed_term(self, chart):
        g = DiagonalMetric("1+0.1*sin(t)", "1+0.3*cos(2*x)", chart)
        p = FirstOrderOperator.build([["0", "1/(1+0.1*sin(t))"], ["1/(1+0.1*sin(t))", "0"]],
                                     [["0", "-1/(1+0.3*cos(2*x))"], ["1/(1+0.3*cos(2*x))", "0"]],
                                     [["0", "0"], ["0", "0"]])
        l = compose(p, p)
        assert l.c_tx.is_constant and not np.any(l.c_tx.constant)
        assert not l.c_tt.is_constant and l.c_tt.nonzero() == [(0, 0, l.c_tt.entries[0][0]), (1, 1, l.c_tt.entries[1][1])]

    def test_dirac_factorization_of_wave_operator(self):
        m = 1.3
        l = compose(dirac_like(m * np.eye(2)), dirac_like(-m * np.eye(2)))
        assert np.allclose(l.c_tt.constant, np.eye(2))
        assert np.allclose(l.c_xx.constant, -np.eye(2))
        assert np.allclose(l.c_tx.constant, 0.0)
        assert np.allclose(l.d_t.at(0.0, 0.0), 0.0, atol=1e-12)
        assert np.allclose(l.d_x.at(0.0, 0.0), 0.0, atol=1e-12)
        assert np.allclose(l.e.constant, -(m**2) * np.eye(2))

    def test_product_rule_on_variable_coefficients(self):
        # x d_x (d_x + x) phi = x phi'' + x^2 phi' + x phi
        p = FirstOrderOperator.build([["0"]], [["x"]], [["0"]])
        q = FirstOrderOperator.build([["0"]], [["1"]], [["x"]])
        l = compose(p, q)
        for x in (-0.8, 0.3, 1.1):
            assert l.c_xx.at(0.0, x)[0, 0] == pytest.approx(x, abs=1e-12)
            assert l.d_x.at(0.0, x)[0, 0] == pytest.approx(x**2, abs=1e-8)
            assert l.e.at(0.0, x)[0, 0] == pytest.approx(x, abs=1e-8)

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            compose(transport(), dirac_like(np.zeros((2, 2))))

    def test_compose_matches_sequential_application(self, chart, mink):
        # P(Q phi) applied sequentially and the composed operator are both
        # O(h^2) discretizations of the same continuum operator: their
        # interior gap must be small and shrink at second order
        p = dirac_like(0.5 * np.eye(2))
        q = dirac_like(-0.5 * np.eye(2))

        def gap(nx):
            grid = build_grid(chart, mink, nx)
            tt, xx = np.meshgrid(grid.ts, grid.xs, indexing="ij")
            prof = np.exp(-8 * xx**2) * np.cos(2 * tt)
            phi = GridSection(grid, np.stack([prof, 0.5 * prof], axis=-1).astype(complex))
            seq = apply_operator(p, apply_operator(q, phi))
            once = apply_operator(compose(p, q), phi)
            diff = np.max(np.abs(seq.values[6:-6, 6:-6] - once.values[6:-6, 6:-6]))
            return diff / np.max(np.abs(once.values))

        coarse, fine = gap(128), gap(256)
        assert fine < 2e-3
        assert coarse / fine > 3.0


class TestHyperbolicity:
    def test_dirac_pair_passes(self, mink):
        rep = is_complementary_pair(
            dirac_like(1.0 * np.eye(2)), dirac_like(-1.0 * np.eye(2)), mink
        )
        assert rep.passed
        assert rep.max_deviation < 1e-10

    def test_same_sign_mass_still_pair_at_symbol_level(self, mink):
        # the zeroth-order part never enters the principal symbol
        rep = is_complementary_pair(
            dirac_like(1.0 * np.eye(2)), dirac_like(1.0 * np.eye(2)), mink
        )
        assert rep.passed

    def test_elliptic_operator_fails_with_deviation_two(self, mink):
        laplace = SecondOrderOperator(
            1,
            MatrixField.from_constant([[1.0]]),
            MatrixField.zero(1),
            MatrixField.from_constant([[1.0]]),
            MatrixField.zero(1),
            MatrixField.zero(1),
            MatrixField.zero(1),
        )
        rep = is_normally_hyperbolic(laplace, mink)
        assert not rep.passed
        assert rep.max_deviation == pytest.approx(2.0)
        assert rep.worst_covector == (0.0, 1.0)

    def test_repeated_transport_is_not_a_pair(self, mink):
        rep = is_complementary_pair(transport(), transport(), mink)
        assert not rep.passed

    def test_conformal_wave_operator_passes(self, chart):
        omega = "1+0.2*sin(t)*cos(x)"
        g = DiagonalMetric(omega, omega, chart)
        inv = f"1/(({omega})^2)"
        l = SecondOrderOperator(
            1,
            MatrixField.from_exprs([[inv]]),
            MatrixField.zero(1),
            MatrixField.from_exprs([[f"-({inv})"]]),
            MatrixField.zero(1),
            MatrixField.zero(1),
            MatrixField.zero(1),
        )
        rep = is_normally_hyperbolic(l, g)
        assert rep.passed
        assert rep.max_deviation < 1e-10


class TestSymbolInvertibility:
    def test_timelike_covector_invertible(self):
        rep = symbol_invertibility(dirac_like(np.zeros((2, 2))), (0.0, 0.0), (1.0, 0.0))
        assert rep.invertible
        assert rep.abs_det == pytest.approx(1.0)

    def test_null_covector_singular(self):
        rep = symbol_invertibility(dirac_like(np.zeros((2, 2))), (0.0, 0.0), (1.0, 1.0))
        assert not rep.invertible
        assert rep.condition_estimate == np.inf

    def test_det_equals_minus_metric_square(self, mink):
        # for this 2x2 representation det sigma(xi) = -g(xi, xi) exactly
        p = dirac_like(np.zeros((2, 2)))
        rng = np.random.default_rng(3)
        for _ in range(50):
            xi = rng.normal(size=2)
            det = np.linalg.det(principal_symbol_1(p, (0.0, 0.0), tuple(xi)))
            gxx = mink.inverse_on_covector((0.0, 0.0), tuple(xi))
            assert det == pytest.approx(-gxx, abs=1e-12)


class TestFormalAdjoint:
    def test_constant_case(self, mink):
        p = dirac_like(np.array([[0.0, 1.0], [2.0, 0.0]]))
        star = formal_adjoint(p, mink)
        assert np.allclose(star.a_t.constant, -GAMMA_T.T)
        assert np.allclose(star.a_x.constant, -GAMMA_X.T)
        assert np.allclose(star.b.constant, np.array([[0.0, 2.0], [1.0, 0.0]]))

    def test_exponential_density_shifts_b(self, chart):
        # rho = e^t, P = d_t: P* = -d_t - 1
        g = DiagonalMetric("exp(t)", "1", chart)
        star = formal_adjoint(FirstOrderOperator.build([[1.0]], [[0.0]], [[0.0]]), g)
        assert star.a_t.at(0.1, 0.0)[0, 0] == pytest.approx(-1.0)
        for t in (-0.2, 0.0, 0.2):
            assert star.b.at(t, 0.0)[0, 0] == pytest.approx(-1.0, abs=1e-9)

    def test_double_adjoint_constant(self, mink):
        p = dirac_like(1.7 * np.eye(2))
        back = formal_adjoint(formal_adjoint(p, mink), mink)
        assert np.allclose(back.a_t.constant, GAMMA_T)
        assert np.allclose(back.a_x.constant, GAMMA_X)
        assert np.allclose(back.b.constant, 1.7 * np.eye(2))

    def test_integration_by_parts_defect(self, chart):
        # <psi, P phi> == <P* psi, phi> for compactly supported sections
        g = DiagonalMetric("1+0.1*sin(t)", "1+0.3*cos(2*x)", chart)
        grid = build_grid(chart, g, 512)
        p = dirac_like(0.8 * np.eye(2))
        star = formal_adjoint(p, g)
        wx = plateau_window(grid.xs, 0.0, 0.1, 3.0)
        wt = plateau_window(grid.ts, 0.0, 0.05, 8.0)
        prof = wt[:, None] * wx[None, :]
        phi = GridSection(grid, np.stack([prof, 0.3 * prof], axis=-1).astype(complex))
        psi = GridSection(grid, np.stack([0.5 * prof, prof], axis=-1).astype(complex))
        lhs = pairing(psi, apply_operator(p, phi), g, grid)
        rhs = pairing(apply_operator(star, psi), phi, g, grid)
        assert abs(lhs - rhs) < 1e-4 * max(abs(lhs), 1.0)


class TestPairingAndApply:
    def test_pairing_of_constant_sections(self, mink, grid_small):
        ones = GridSection(grid_small, np.ones((grid_small.nt, grid_small.nx, 1), dtype=complex))
        val = pairing(ones, ones, mink, grid_small)
        # chart area is 0.6 * 2.0 with rho = 1
        assert val.real == pytest.approx(1.2, rel=1e-12)
        assert val.imag == pytest.approx(0.0, abs=1e-14)

    def test_pairing_shape_mismatch(self, mink, grid_small):
        a = GridSection.zeros(grid_small, 1)
        b = GridSection.zeros(grid_small, 2)
        with pytest.raises(ValueError):
            pairing(a, b, mink, grid_small)

    def test_apply_dt_on_linear_time(self, grid_small):
        dt_op = FirstOrderOperator.build([[1.0]], [[0.0]], [[0.0]])
        vals = np.broadcast_to(grid_small.ts[:, None, None], (grid_small.nt, grid_small.nx, 1))
        phi = GridSection(grid_small, np.array(vals, dtype=complex))
        out = apply_operator(dt_op, phi)
        assert np.max(np.abs(out.values - 1.0)) < 1e-10

    def test_apply_with_x_dependent_coefficient(self, grid_small):
        # (x d_x) on x^2 -> 2 x^2
        p = FirstOrderOperator.build([["0"]], [["x"]], [["0"]])
        vals = np.broadcast_to((grid_small.xs**2)[None, :, None], (grid_small.nt, grid_small.nx, 1))
        out = apply_operator(p, GridSection(grid_small, np.array(vals, dtype=complex)))
        ref = 2.0 * grid_small.xs**2
        assert np.max(np.abs(out.values[3, :, 0] - ref)) < 1e-9
