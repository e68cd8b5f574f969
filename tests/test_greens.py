import numpy as np
import pytest

from prehyp.bundle_ops import apply_operator, compose
from prehyp.expr import Bin, Num, evaluate, simplify
from prehyp.geometry import Chart1p1, DiagonalMetric, minkowski
from prehyp.grids import MarginError, build_grid
from prehyp.greens import TestSection as SourceSection
from prehyp.greens import (
    adjoint_pairing_check,
    apply_analytic,
    greens_apply,
    greens_report,
    identity_i_residual,
    identity_ii_residual,
    make_test_section,
    solve_driven,
    source_shadow,
    uniqueness_probe,
)
from prehyp.qft_dirac import DiracModel, build_dirac_pair

X_WINDOW = (0.0, 0.05, 2.5)
T_WINDOW = (0.0, 0.02, 10.0)


@pytest.fixture
def dirac_pair(mink):
    return build_dirac_pair(DiracModel(mass=1.0), mink)


@pytest.fixture
def grid_greens(chart, mink):
    return build_grid(chart, mink, 384)


def section(grid, components=("1", "0.5"), x_window=X_WINDOW, t_window=T_WINDOW):
    return make_test_section(grid, list(components), x_window, t_window)


class TestSections:
    def test_support_box(self, grid_greens):
        s = section(grid_greens)
        assert s.x_support == pytest.approx((-0.45, 0.45))
        assert s.t_support == pytest.approx((-0.12, 0.12))
        assert s.linf() > 0
        # grid samples agree with the component expressions
        j = grid_greens.nt // 2
        t = float(grid_greens.ts[j])
        for c, ast in enumerate(s.components):
            assert np.allclose(s.values[j, :, c], evaluate(ast, t, grid_greens.xs))

    def test_temporal_margin_enforced(self, mink, grid_greens, dirac_pair):
        p, q = dirac_pair
        wide = section(grid_greens, t_window=(0.0, 0.28, 100.0))
        with pytest.raises(MarginError):
            greens_apply(p, q, mink, wide, "retarded", grid_greens)

    def test_unknown_direction(self, mink, grid_greens, dirac_pair):
        p, q = dirac_pair
        s = section(grid_greens)
        with pytest.raises(ValueError):
            solve_driven(compose(p, q), mink, s, "sideways", grid_greens)


class TestBasicProperties:
    def test_zero_source_gives_zero(self, mink, grid_greens, dirac_pair):
        p, q = dirac_pair
        s = section(grid_greens, components=("0", "0"))
        out = greens_apply(p, q, mink, s, "retarded", grid_greens)
        assert out.linf() == 0.0

    def test_linearity(self, mink, grid_greens, dirac_pair):
        p, q = dirac_pair
        a = section(grid_greens, components=("1", "0"))
        b = section(grid_greens, components=("x", "1"))
        combo = SourceSection(
            grid_greens,
            tuple(simplify(Bin("+", Bin("*", Num(2.0), u), Bin("*", Num(3j), v)))
                  for u, v in zip(a.components, b.components)),
            a.t_support,
            a.x_support,
        )
        assert np.allclose(combo.values, 2.0 * a.values + 3j * b.values, rtol=0, atol=1e-14)
        sa = greens_apply(p, q, mink, a, "retarded", grid_greens)
        sb = greens_apply(p, q, mink, b, "retarded", grid_greens)
        sc = greens_apply(p, q, mink, combo, "retarded", grid_greens)
        gap = np.max(np.abs(sc.values - 2.0 * sa.values - 3j * sb.values))
        assert gap < 1e-11 * max(sc.linf(), 1.0)

    def test_retarded_vanishes_before_source(self, mink, grid_greens, dirac_pair):
        p, q = dirac_pair
        s = section(grid_greens)
        out = greens_apply(p, q, mink, s, "retarded", grid_greens)
        before = grid_greens.ts < s.t_support[0] - 2 * grid_greens.dt
        assert np.max(np.abs(out.values[before])) < 1e-12 * out.linf()

    def test_advanced_vanishes_after_source(self, mink, grid_greens, dirac_pair):
        p, q = dirac_pair
        s = section(grid_greens)
        out = greens_apply(p, q, mink, s, "advanced", grid_greens)
        after = grid_greens.ts > s.t_support[1] + 2 * grid_greens.dt
        assert np.max(np.abs(out.values[after])) < 1e-12 * out.linf()

    def test_apply_analytic_matches_discrete(self, grid_greens, dirac_pair):
        p, _ = dirac_pair
        s = section(grid_greens)
        exact = apply_analytic(p, s)
        disc = apply_operator(p, s.as_section())
        gap = np.max(np.abs(exact.values[2:-2] - disc.values[2:-2]))
        assert gap < 5e-3 * max(np.max(np.abs(exact.values)), 1.0)


class TestSourceEvaluation:
    """A driven solve samples its source through one tape: x-only nodes once,
    t nodes once per distinct RK4 stage time."""

    def test_window_steps_per_retarded_solve(self, chart, mink, dirac_pair, monkeypatch):
        from prehyp import expr

        p, q = dirac_pair
        grid = build_grid(chart, mink, 128)
        s = section(grid)
        s.linf()  # the mesh samples are not part of the solve
        args = []
        real = expr.smooth_step

        def counting(u):
            args.append(np.shape(u))
            return real(u)

        monkeypatch.setitem(expr._EVAL_FUNCTIONS, "step", counting)
        greens_apply(p, q, mink, s, "retarded", grid)
        # the tape is built on the first call: the x window's two steps
        assert args[:2] == [(grid.nx,), (grid.nx,)]
        # then the t window's two steps per stage time: the levels and the
        # midpoints between them
        assert all(shape == () for shape in args[2:])
        assert len(args) - 2 <= 2 * (2 * grid.nt - 1)


class TestGreensIdentities:
    @pytest.mark.parametrize("direction", ["retarded", "advanced"])
    def test_identity_left_inverse(self, mink, grid_greens, dirac_pair, direction):
        p, q = dirac_pair
        res = identity_i_residual(p, q, mink, section(grid_greens), direction, grid_greens)
        assert res < 2e-2

    @pytest.mark.parametrize("direction", ["retarded", "advanced"])
    def test_identity_right_inverse(self, mink, grid_greens, dirac_pair, direction):
        p, q = dirac_pair
        res = identity_ii_residual(p, q, mink, section(grid_greens), direction, grid_greens)
        assert res < 2e-2

    @pytest.mark.parametrize("direction", ["retarded", "advanced"])
    def test_identity_causal_support(self, mink, grid_greens, dirac_pair, direction):
        p, q = dirac_pair
        leak = greens_report(p, q, mink, section(grid_greens), direction, grid_greens).support_leak
        assert leak < 1e-7

    def test_report_bundles_all_checks(self, mink, grid_greens, dirac_pair):
        p, q = dirac_pair
        rep = greens_report(p, q, mink, section(grid_greens), "retarded", grid_greens)
        assert rep.identity_i < 2e-2
        assert rep.identity_ii < 2e-2
        assert rep.support_leak < 1e-7


class TestAdjointPairing:
    def test_defect_small(self, mink, grid_greens, dirac_pair):
        p, q = dirac_pair
        f = section(grid_greens, components=("1", "0"))
        psi = section(grid_greens, components=("0", "1"), x_window=(0.2, 0.05, 2.5))
        rep = adjoint_pairing_check(p, q, mink, psi, f, grid_greens)
        assert abs(rep.lhs) > 0 and abs(rep.rhs) > 0
        assert rep.defect < 1e-3

    def test_mismatched_directions_is_a_negative_control(self, mink, grid_greens, dirac_pair):
        p, q = dirac_pair
        f = section(grid_greens, components=("1", "0"))
        psi = section(grid_greens, components=("0", "1"), x_window=(0.2, 0.05, 2.5))
        control = adjoint_pairing_check(p, q, mink, psi, f, grid_greens).mismatch_control
        assert control > 1e-1

    def test_causally_disjoint_sources_pair_to_zero(self, chart, mink, dirac_pair):
        # psi lives strictly after the retarded influence of f has moved on:
        # put them on opposite sides, spacelike separated
        p, q = dirac_pair
        grid = build_grid(chart, mink, 384)
        f = make_test_section(grid, ["1", "0"], (-0.55, 0.02, 10.0), (0.0, 0.02, 10.0))
        psi = make_test_section(grid, ["0", "1"], (0.55, 0.02, 10.0), (0.0, 0.02, 10.0))
        s_f = greens_apply(p, q, mink, f, "retarded", grid)
        val = abs(
            np.sum(np.conj(psi.values) * 0 + psi.values * s_f.values)
        )  # plain overlap; supports never meet inside the chart
        # the retarded solution of f cannot reach psi's support box in time
        shadow = source_shadow(mink, grid, f, "retarded")
        for j, t in enumerate(grid.ts):
            if psi.values[j].any():
                mask = ~shadow.outside_mask(float(t), grid.xs)
                overlap = np.abs(psi.values[j][mask]).max() if mask.any() else 0.0
                assert overlap == 0.0
        assert val < 1e-10 * max(s_f.linf(), 1.0)


class TestUniqueness:
    def test_independent_partner_gives_same_greens_apply(self, chart, mink):
        # Q = D - i m and Q' = D - i m' are both complementary partners of
        # P = D + i m at the symbol level; S built from either must agree
        # on P's Green's identity, and the probe shrinks under refinement
        p, q = build_dirac_pair(DiracModel(mass=1.0), mink)
        _, q_alt = build_dirac_pair(DiracModel(mass=1.0), mink)

        def probe(nx):
            grid = build_grid(chart, mink, nx)
            return uniqueness_probe(
                p, q, q_alt, mink, section(grid), "retarded", grid
            )

        assert probe(256) < 1e-12  # identical partner: exactly the same solve

    def test_identity_i_independent_of_partner_mass(self, chart, mink):
        p, _ = build_dirac_pair(DiracModel(mass=1.0), mink)
        grid = build_grid(chart, mink, 384)
        res = []
        for m_alt in (1.0, 0.5):
            _, q_alt = build_dirac_pair(DiracModel(mass=m_alt), mink)
            res.append(identity_i_residual(p, q_alt, mink, section(grid), "retarded", grid))
        # both partners invert P up to scheme error
        assert max(res) < 3e-2
