"""The pruned RK4 core against the unpruned scheme it replaced.

The solvers leave out coefficient fields that fold to 0 and the stencils
only they need, and sample a driven solve's source once per sweep inside
its time support.  The reference below keeps the full scheme: all five
contractions of the second-order right-hand side, both terms of the direct
one, the grids stencils at every stage, the source sampled at every stage
time and the states collected per level.  Solutions must be equal bit for
bit, since a - 0 = a and the remaining operations run in the same order.
"""

import numpy as np
import pytest

from prehyp import cauchy, greens
from prehyp.bundle_ops import FirstOrderOperator, coefficient_tape, compose, contract
from prehyp.cauchy import solve_cauchy, solve_first_order_direct, solve_second_order
from prehyp.config import resolve_preset
from prehyp.expr import Tape
from prehyp.geometry import DiagonalMetric
from prehyp.grids import GridSection, build_grid, d_x, d_xx, make_cauchy_data
from prehyp.greens import greens_apply, make_test_section
from prehyp.qft_dirac import DiracModel, build_dirac_pair

X_WINDOW = (0.0, 0.05, 2.5)
T_WINDOW = (0.0, 0.02, 10.0)
METRICS = {
    "minkowski": ("1", "1"),
    "readme": ("1+0.1*sin(t)", "1+0.3*cos(2*x)"),
    "varying": ("1+0.3*x", "1+0.3*t"),
}


def reference_evolve(rhs, y0, grid, j0):
    states = {j0: y0}
    for forward in (True, False):
        step = 1 if forward else -1
        dt = step * grid.dt
        levels = range(j0, grid.nt - 1) if forward else range(j0, 0, -1)
        y = y0
        for j in levels:
            t = float(grid.ts[j])
            k1 = rhs(t, y)
            k2 = rhs(t + dt / 2, tuple(yc + dt / 2 * kc for yc, kc in zip(y, k1)))
            k3 = rhs(t + dt / 2, tuple(yc + dt / 2 * kc for yc, kc in zip(y, k2)))
            k4 = rhs(float(grid.ts[j + step]), tuple(yc + dt * kc for yc, kc in zip(y, k3)))
            y = tuple(yc + dt / 6 * (a + 2 * b + 2 * c + d) for yc, a, b, c, d in zip(y, k1, k2, k3, k4))
            if not grid.periodic:
                for yc in y:
                    yc[0] = 0.0
                    yc[-1] = 0.0
            states[j + step] = y
    return GridSection(grid, np.stack([states[j][0] for j in range(grid.nt)]))


def reference_solve_second_order(op, metric, grid, phi0_values, dtphi0_values, j0, source=None):
    grid.check_cfl(metric.max_light_speed())
    coeffs = coefficient_tape((op.c_tx.scale(2.0), op.c_xx, op.d_t, op.d_x, op.e, op.c_tt.inverse()), grid.xs)
    forcing = Tape(source.components, grid.xs) if source is not None else None

    def rhs(t, y):
        u, v = y
        c_tx2, c_xx, dt_c, dx_c, e_c, inv_tt = coeffs(t)
        ux = d_x(u, grid)
        uxx = d_xx(u, grid)
        vx = d_x(v, grid)
        f = forcing.stack(t) if forcing is not None else 0.0
        load = f - contract(c_tx2, vx) - contract(c_xx, uxx) - contract(dt_c, v) - contract(dx_c, ux) - contract(e_c, u)
        return (v.copy(), contract(inv_tt, load))

    y0 = (phi0_values.astype(complex).copy(), dtphi0_values.astype(complex).copy())
    return reference_evolve(rhs, y0, grid, j0)


def reference_solve_first_order_direct(p, metric, phi0, grid):
    grid.check_cfl(metric.max_light_speed())
    coeffs = coefficient_tape((p.a_x, p.effective_b(), p.a_t.inverse()), grid.xs)

    def rhs(t, y):
        (u,) = y
        a_x, b, inv_t = coeffs(t)
        return (contract(inv_t, -(contract(a_x, d_x(u, grid)) + contract(b, u))),)

    return reference_evolve(rhs, (phi0.values.astype(complex).copy(),), grid, phi0.level)


def scenario(chart, preset, metric_name):
    alpha, beta = METRICS[metric_name]
    metric = DiagonalMetric(alpha, beta, chart)
    p_exprs, q_exprs, k = resolve_preset(preset, 1.0, alpha, beta)
    p, q = (FirstOrderOperator.build(e["A_t"], e["A_x"], e["B"]) for e in (p_exprs, q_exprs))
    grid = build_grid(chart, metric, 128)
    return metric, p, q, grid, ["1", "0.5"][:k]


def use_reference(monkeypatch):
    for mod in (cauchy, greens):
        monkeypatch.setattr(mod, "solve_second_order", reference_solve_second_order)


@pytest.mark.parametrize("metric_name", sorted(METRICS))
@pytest.mark.parametrize("preset", ["dirac_massive", "scalar_transport_pair"])
@pytest.mark.parametrize("solve", ["cauchy", "direct", "retarded", "advanced"])
def test_solutions_equal_the_unpruned_scheme(chart, monkeypatch, preset, metric_name, solve):
    metric, p, q, grid, components = scenario(chart, preset, metric_name)
    phi0 = make_cauchy_data(grid, components, 0.0)
    section = make_test_section(grid, components, X_WINDOW, T_WINDOW)
    if solve == "direct":
        actual = solve_first_order_direct(p, metric, phi0, grid)
        expected = reference_solve_first_order_direct(p, metric, phi0, grid)
    else:
        def run():
            if solve == "cauchy":
                return solve_cauchy(p, q, metric, phi0, grid)[0]
            return greens_apply(p, q, metric, section, solve, grid)

        actual = run()
        use_reference(monkeypatch)
        expected = run()
    assert np.isfinite(actual.values).all()
    assert np.array_equal(actual.values, expected.values)


@pytest.mark.parametrize("driven", [False, True])
def test_all_nonzero_fields_equal_the_unpruned_scheme(chart, mink, driven):
    # Q P = d_t^2 + 0.7 d_t d_x + 0.1 d_x^2 + 0.4 d_t + 0.11 d_x + 0.03
    p = FirstOrderOperator.build([[1.0]], [[0.5]], [[0.3]])
    q = FirstOrderOperator.build([[1.0]], [[0.2]], [[0.1]])
    op = compose(q, p)
    assert not any(f.is_zero for f in (op.c_tx, op.c_xx, op.d_t, op.d_x, op.e))
    grid = build_grid(chart, mink, 128)
    if driven:
        zeros = np.zeros((grid.nx, 1), dtype=complex)
        section = make_test_section(grid, ["1+x"], X_WINDOW, T_WINDOW)
        args = (op, mink, grid, zeros, zeros, 0, section)
    else:
        phi0 = make_cauchy_data(grid, ["1"], 0.0)
        args = (op, mink, grid, phi0.values, 0.5 * phi0.values, phi0.level)
    actual = solve_second_order(*args).values
    assert np.isfinite(actual).all() and np.abs(actual).max() > 0
    assert np.array_equal(actual, reference_solve_second_order(*args).values)


def test_minkowski_dirac_rhs_takes_no_first_derivative(chart, mink, monkeypatch):
    # on Minkowski, 2C^tx and D^x of the Dirac square fold to 0, so the
    # right-hand side needs d_xx u alone; the unpruned scheme takes two d_x
    calls = []
    real = cauchy.d_x

    def counting(values, grid):
        calls.append(values.shape)
        return real(values, grid)

    monkeypatch.setattr(cauchy, "d_x", counting)
    p, q = build_dirac_pair(DiracModel(mass=1.0), mink)
    grid = build_grid(chart, mink, 128)
    greens_apply(p, q, mink, make_test_section(grid, ["1", "0.5"], X_WINDOW, T_WINDOW), "retarded", grid)
    assert calls == []
