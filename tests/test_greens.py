import numpy as np
import pytest

from prehyp import cauchy
from prehyp.bundle_ops import FirstOrderOperator, MatrixField, apply_operator, compose, formal_adjoint, pairing
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
            assert np.allclose(s.as_section().level(j)[:, c], evaluate(ast, t, grid_greens.xs))

    def test_temporal_margin_enforced(self, mink, grid_greens, dirac_pair):
        p, q = dirac_pair
        wide = section(grid_greens, t_window=(0.0, 0.28, 100.0))
        with pytest.raises(MarginError):
            greens_apply(p, q, mink, [(wide, "retarded")], grid_greens)

    def test_unknown_direction(self, mink, grid_greens, dirac_pair):
        p, q = dirac_pair
        s = section(grid_greens)
        with pytest.raises(ValueError):
            solve_driven(compose(p, q), mink, [(s, "sideways")], grid_greens)


class TestBasicProperties:
    def test_zero_source_gives_zero(self, mink, grid_greens, dirac_pair):
        p, q = dirac_pair
        s = section(grid_greens, components=("0", "0"))
        out = greens_apply(p, q, mink, [(s, "retarded")], grid_greens)[0]
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
        sa = greens_apply(p, q, mink, [(a, "retarded")], grid_greens)[0]
        sb = greens_apply(p, q, mink, [(b, "retarded")], grid_greens)[0]
        sc = greens_apply(p, q, mink, [(combo, "retarded")], grid_greens)[0]
        gap = np.max(np.abs(sc.values - 2.0 * sa.values - 3j * sb.values))
        assert gap < 1e-11 * max(sc.linf(), 1.0)

    def test_retarded_vanishes_before_source(self, mink, grid_greens, dirac_pair):
        p, q = dirac_pair
        s = section(grid_greens)
        out = greens_apply(p, q, mink, [(s, "retarded")], grid_greens)[0]
        before = grid_greens.ts < s.t_support[0] - 2 * grid_greens.dt
        assert np.max(np.abs(out.mesh()[before])) < 1e-12 * out.linf()

    def test_advanced_vanishes_after_source(self, mink, grid_greens, dirac_pair):
        p, q = dirac_pair
        s = section(grid_greens)
        out = greens_apply(p, q, mink, [(s, "advanced")], grid_greens)[0]
        after = grid_greens.ts > s.t_support[1] + 2 * grid_greens.dt
        assert np.max(np.abs(out.mesh()[after])) < 1e-12 * out.linf()

    def test_apply_analytic_matches_discrete(self, grid_greens, dirac_pair):
        p, _ = dirac_pair
        s = section(grid_greens)
        exact = apply_analytic(p, s)
        disc = apply_operator(p, s.as_section())
        gap = np.max(np.abs(exact.as_section().mesh()[2:-2] - disc.mesh()[2:-2]))
        assert gap < 5e-3 * max(np.max(np.abs(exact.values)), 1.0)


class TestSourceEvaluation:
    """A driven solve samples its source through one tape: x-only nodes once,
    t nodes in one mesh evaluation per block of RK4 steps, at the block's
    stage times inside the source's time support."""

    def test_window_steps_per_retarded_solve(self, chart, mink, dirac_pair, monkeypatch):
        from prehyp import expr

        p, q = dirac_pair
        grid = build_grid(chart, mink, 128)
        s = section(grid)
        s.linf()  # the mesh samples are not part of the solve
        args = []
        real = expr.smooth_step

        def counting(u):
            args.append(np.array(u))
            return real(u)

        monkeypatch.setitem(expr._EVAL_FUNCTIONS, "step", counting)
        greens_apply(p, q, mink, [(s, "retarded")], grid)
        # the tape is built on the first call: the x window's two steps
        assert [a.shape for a in args[:2]] == [(grid.nx,), (grid.nx,)]
        # then the t window's rise and fall, once each per block of steps, on
        # one column of the block's stage times (levels and midpoints) inside
        # the t-support: every such stage once, and the stage two blocks
        # share twice; the backward sweep from level 0 has no stages
        lo, hi = s.t_support
        stages = np.empty(2 * grid.nt - 1)
        stages[0::2], stages[1::2] = grid.ts, grid.ts[:-1] + grid.dt / 2
        inside = int(np.count_nonzero((stages >= lo) & (stages <= hi)))
        assert 0 < inside < len(stages)
        # the sweep's blocks start at its first forced step, two stages a step
        forced = int(np.argmax(stages >= lo))
        last = forced + inside - 1 - 2 * ((forced - 1) // 2)
        rises, falls = args[2::2], args[3::2]
        blocks = len(rises)
        assert len(args) == 2 + 2 * blocks and blocks == last // (2 * cauchy.BLOCK_STEPS) + 1 > 1
        assert [a.shape for a in rises] == [a.shape for a in falls]
        assert all(a.shape[1] == 1 and a.shape[0] <= 2 * cauchy.BLOCK_STEPS + 1 for a in rises)
        assert sum(len(a) for a in rises) == inside + blocks - 1
        # each step's argument is (t - lo)/tau or (hi - t)/tau: never negative
        assert all((a >= 0).all() for a in args[2:])


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
        leak = greens_report(p, q, mink, section(grid_greens), direction, grid_greens)[0].support_leak
        assert leak < 1e-7

    def test_report_bundles_all_checks(self, mink, grid_greens, dirac_pair):
        p, q = dirac_pair
        rep = greens_report(p, q, mink, section(grid_greens), "retarded", grid_greens)[0]
        assert rep.identity_i < 2e-2
        assert rep.identity_ii < 2e-2
        assert rep.support_leak < 1e-7


def dual_sides(chart, monkeypatch, alpha, beta):
    """Check adjoint_pairing_check on a Dirac pair against greens_apply's
    sides, each marched alone; returns the jobs of each of its marches
    after checking that it composes twice."""
    from prehyp import greens

    metric = DiagonalMetric(alpha, beta, chart)
    p, q = build_dirac_pair(DiracModel(mass=1.0), metric)
    grid = build_grid(chart, metric, 128)
    f = section(grid, components=("1", "0"), t_window=(0.0, 0.02, 20.0))
    psi = section(grid, components=("0", "1"), x_window=(0.2, 0.05, 2.5), t_window=(0.0, 0.02, 20.0))
    calls, jobs = [], []
    real, real_driven = greens.compose, greens.solve_driven
    monkeypatch.setattr(greens, "compose", lambda a, b: calls.append((a, b)) or real(a, b))
    monkeypatch.setattr(greens, "solve_driven", lambda op, m, js, g: jobs.append(len(js)) or real_driven(op, m, js, g))
    rep = adjoint_pairing_check(p, q, metric, psi, f, None, grid)
    assert len(calls) == 2
    monkeypatch.undo()
    p_star, q_star = formal_adjoint(p, metric), formal_adjoint(q, metric)
    assert compose(p, q).same_fields(compose(p_star, q_star)) == (len(jobs) == 1)
    rhs = pairing(psi.as_section(), greens_apply(p, q, metric, [(f, "retarded")], grid)[0], metric, grid)
    lhs, control = (
        pairing(greens_apply(p_star, q_star, metric, [(psi, d)], grid)[0], f.as_section(), metric, grid)
        for d in ("advanced", "retarded")
    )
    assert (rep.lhs, rep.rhs) == (lhs, rhs)
    assert rep.mismatch_control == abs(control - rhs) / max(abs(control), abs(rhs))
    return jobs


class TestAdjointPairing:
    def test_defect_small(self, mink, grid_greens, dirac_pair):
        p, q = dirac_pair
        f = section(grid_greens, components=("1", "0"))
        psi = section(grid_greens, components=("0", "1"), x_window=(0.2, 0.05, 2.5))
        rep = adjoint_pairing_check(p, q, mink, psi, f, None, grid_greens)
        assert abs(rep.lhs) > 0 and abs(rep.rhs) > 0
        assert rep.defect < 1e-3

    def test_dual_sides_share_one_composition(self, chart, monkeypatch):
        # P Q for S_+ f and P* Q* once for S'_- psi and S'_+ psi; on the
        # README metric P* Q* has the fields of P Q, so S_+ f marches with
        # them
        assert dual_sides(chart, monkeypatch, "1+0.1*sin(t)", "1+0.3*cos(2*x)") == [3]

    def test_the_general_metric_marches_s_plus_f_alone(self, chart, monkeypatch):
        # there P* Q* has other fields than P Q: S_+ f first, then the dual
        # pair
        assert dual_sides(chart, monkeypatch, "1+0.3*x", "1+0.3*t") == [1, 2]

    def test_a_held_s_plus_f_leaves_only_the_dual_march(self, chart, monkeypatch):
        # S_+ f over the whole grid, held by the caller, gives the report
        # that S_+ f solved over psi's levels gives
        from prehyp import greens

        metric = DiagonalMetric("1+0.1*sin(t)", "1+0.3*cos(2*x)", chart)
        p, q = build_dirac_pair(DiracModel(mass=1.0), metric)
        grid = build_grid(chart, metric, 128)
        f = section(grid, components=("1", "0"), t_window=(-0.05, 0.02, 20.0))
        psi = section(grid, components=("0", "1"), x_window=(0.2, 0.05, 2.5), t_window=(0.05, 0.02, 20.0))
        held = greens_apply(p, q, metric, [(f, "retarded")], grid)[0]
        jobs = []
        real = greens.solve_driven
        monkeypatch.setattr(greens, "solve_driven", lambda op, m, js, g: jobs.append(len(js)) or real(op, m, js, g))
        assert adjoint_pairing_check(p, q, metric, psi, f, held, grid) == adjoint_pairing_check(p, q, metric, psi, f, None, grid)
        assert jobs == [2, 3]

    def test_marches_stop_where_the_pairing_stops_reading(self, chart, dirac_pair, monkeypatch):
        # f early and psi late: S+ f is marched over psi's levels, S'-+ psi
        # over f's, each widened by a level for the t-stencil of Q or Q*,
        # all three in one march, and the report equals that of marches
        # over the whole grid
        from prehyp import greens

        metric = DiagonalMetric("1+0.1*sin(t)", "1+0.3*cos(2*x)", chart)
        p, q = build_dirac_pair(DiracModel(mass=1.0), metric)
        grid = build_grid(chart, metric, 128)
        f = section(grid, components=("1", "0"), t_window=(-0.1, 0.02, 20.0))
        psi = section(grid, components=("0", "1"), x_window=(0.2, 0.05, 2.5), t_window=(0.1, 0.02, 20.0))
        spans = []
        real = greens.solve_driven

        def solve_driven(op, metric, jobs, grid):
            spans.append([job[2] for job in jobs])
            return real(op, metric, jobs, grid)

        monkeypatch.setattr(greens, "solve_driven", solve_driven)
        rep = adjoint_pairing_check(p, q, metric, psi, f, None, grid)
        inside = [np.flatnonzero((grid.ts >= lo) & (grid.ts <= hi)) for lo, hi in (psi.t_support, f.t_support)]
        (psi_lo, psi_hi), (f_lo, f_hi) = ((int(i[0]) - 1, int(i[-1]) + 1) for i in inside)
        assert spans == [[(psi_lo, psi_hi)] + [(f_lo, f_hi)] * 2] and f_hi < psi_lo
        monkeypatch.setattr(greens, "stencil_span", lambda grid, t_support: None)
        assert adjoint_pairing_check(p, q, metric, psi, f, None, grid) == rep

    def test_mismatched_directions_is_a_negative_control(self, mink, grid_greens, dirac_pair):
        p, q = dirac_pair
        f = section(grid_greens, components=("1", "0"))
        psi = section(grid_greens, components=("0", "1"), x_window=(0.2, 0.05, 2.5))
        control = adjoint_pairing_check(p, q, mink, psi, f, None, grid_greens).mismatch_control
        assert control > 1e-1

    def test_causally_disjoint_sources_pair_to_zero(self, chart, mink, dirac_pair):
        # psi lives strictly after the retarded influence of f has moved on:
        # put them on opposite sides, spacelike separated
        p, q = dirac_pair
        grid = build_grid(chart, mink, 384)
        f = make_test_section(grid, ["1", "0"], (-0.55, 0.02, 10.0), (0.0, 0.02, 10.0))
        psi = make_test_section(grid, ["0", "1"], (0.55, 0.02, 10.0), (0.0, 0.02, 10.0))
        s_f = greens_apply(p, q, mink, [(f, "retarded")], grid)[0]
        val = abs(
            np.sum(np.conj(psi.as_section().mesh()) * 0 + psi.as_section().mesh() * s_f.mesh())
        )  # plain overlap; supports never meet inside the chart
        # the retarded solution of f cannot reach psi's support box in time
        shadow = source_shadow(mink, grid, f, "retarded")
        for j, t in enumerate(grid.ts):
            if psi.as_section().level(j).any():
                mask = ~shadow.outside_mask(float(t), grid.xs)
                overlap = np.abs(psi.as_section().level(j)[mask]).max() if mask.any() else 0.0
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

    @pytest.mark.parametrize("metric", [("1", "1"), ("1+0.1*sin(t)", "1+0.3*cos(2*x)")], ids=["flat", "readme"])
    def test_shifted_partner_converges_to_the_same_greens_operator(self, chart, metric):
        # Q' = Q + 0.5i Id has Q's principal symbol, so it is again a
        # complementary partner of P, and Q' G+(P Q') approaches Q G+(P Q)
        # at second order.  The control Q' G+(P' Q') with P' = P - 0.5i Id
        # is a Green's operator of another operator: its gap must not shrink
        def shifted(op, c):
            return FirstOrderOperator(op.k, op.a_t, op.a_x, op.b + MatrixField.from_constant(c * np.eye(op.k)))

        metric = DiagonalMetric(*metric, chart)
        p, q = build_dirac_pair(DiracModel(mass=1.0), metric)
        p_alt, q_alt = shifted(p, -0.5j), shifted(q, 0.5j)
        gaps, controls = [], []
        for nx in (64, 128, 256):
            grid = build_grid(chart, metric, nx)
            phi = section(grid)
            gaps.append(uniqueness_probe(p, q, q_alt, metric, phi, "retarded", grid))
            s, s_alt = (greens_apply(a, b, metric, [(phi, "retarded")], grid)[0].values for a, b in ((p, q), (p_alt, q_alt)))
            controls.append(float(np.max(np.abs(s - s_alt))))
        assert gaps[-1] < 1e-5 and np.log2(gaps[-2] / gaps[-1]) >= 1.8
        assert min(controls) > 1e-2 and controls[-1] > 0.9 * controls[0]

    def test_identity_i_independent_of_partner_mass(self, chart, mink):
        p, _ = build_dirac_pair(DiracModel(mass=1.0), mink)
        grid = build_grid(chart, mink, 384)
        res = []
        for m_alt in (1.0, 0.5):
            _, q_alt = build_dirac_pair(DiracModel(mass=m_alt), mink)
            res.append(identity_i_residual(p, q_alt, mink, section(grid), "retarded", grid))
        # both partners invert P up to scheme error
        assert max(res) < 3e-2
