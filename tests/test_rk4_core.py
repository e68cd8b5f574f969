"""The pruned RK4 core against the unpruned scheme it replaced.

The solvers leave out coefficient fields that fold to 0 and the stencils
only they need, apply constant c Id fields as numbers, sample a driven
solve's source once per sweep inside its time support, start a sweep
from zero data at its first forced stage, march the directions of every
start of a march (the two halves of a Cauchy solve, the driven solves a
battery batches) in lockstep as one stacked state, evaluate the
coefficients once per block of steps, and run each segment of the march
as a program of ufunc calls into buffers allocated once, its stencils'
interiors as one pass over flat memory.  The reference below keeps the
full scheme: all five matrix contractions of the second-order right-hand
side, both terms of the direct one (whose value at t0 is also the
reference Cauchy datum d_t Phi_0), the coefficients at every stage, the
source sampled at every stage time, every level marched, one half after
the other, and the states collected per level; its stencils and RK4
update are the complex formulas, where the solvers run both on float64
views, with dt/2, dt and dt/6 as numbers or laid out over the state.
Where C^xx and D^x are real s Id fields free of t, one of them not
constant, the solvers apply C^xx d_x^2 u + D^x d_x u (+ E u where E is
one too) as one three-point operator with real weights per node, in
C^xx's place; the reference takes the same weights in the same place
(reference_three_point), and the stencils elsewhere.  Solutions must be
equal under np.array_equal, since a - 0 = a, c Id w = c w, zero data
under zero forcing stay 0, a complex number times or over a real one
rounds as its parts do, a - b = a + (-b), and the remaining operations
run in the same order (zeros may differ in sign).
"""

import functools
import math

import numpy as np
import pytest

from prehyp import bundle_ops, cauchy, greens
from prehyp.bundle_ops import (
    FirstOrderOperator,
    MatrixField,
    SecondOrderOperator,
    coefficient_tape,
    compose,
    formal_adjoint,
    product,
)
from prehyp.cauchy import solve_cauchy, solve_cauchy_plain, solve_first_order_direct, solve_second_order
from prehyp.config import PRESETS as PRESET_NAMES, resolve_preset
from prehyp.expr import ExprEvalError, Tape, is_real, uses_var
from prehyp.geometry import Chart1p1, DiagonalMetric
from prehyp.grids import CauchyData, GridSection, build_grid, make_cauchy_data
from prehyp.greens import greens_apply, make_test_section
from prehyp.qft_dirac import DiracModel, build_dirac_pair

X_WINDOW = (0.0, 0.05, 2.5)
T_WINDOW = (0.0, 0.02, 10.0)
METRICS = {
    "minkowski": ("1", "1"),
    "readme": ("1+0.1*sin(t)", "1+0.3*cos(2*x)"),
    "varying": ("1+0.3*x", "1+0.3*t"),
}


def contract(coeff, vec):
    # coeff @ vec over the last axis, for one field as coefficient_tape gives it
    out = np.zeros(vec.shape, dtype=complex)
    for i, j, val in coeff:
        out[..., i] += val * vec[..., j]
    return out


def reference_d_x(v, grid):
    dx = grid.dx
    if grid.periodic:
        return (np.roll(v, -1, axis=-2) - np.roll(v, 1, axis=-2)) / (2 * dx)
    out = np.empty_like(v)
    out[..., 1:-1, :] = (v[..., 2:, :] - v[..., :-2, :]) / (2 * dx)
    out[..., 0, :] = (-3 * v[..., 0, :] + 4 * v[..., 1, :] - v[..., 2, :]) / (2 * dx)
    out[..., -1, :] = (3 * v[..., -1, :] - 4 * v[..., -2, :] + v[..., -3, :]) / (2 * dx)
    return out


def reference_d_xx(v, grid):
    dx2 = grid.dx**2
    if grid.periodic:
        return (np.roll(v, -1, axis=-2) - 2 * v + np.roll(v, 1, axis=-2)) / dx2
    out = np.empty_like(v)
    out[..., 1:-1, :] = (v[..., 2:, :] - 2 * v[..., 1:-1, :] + v[..., :-2, :]) / dx2
    out[..., 0, :] = (2 * v[..., 0, :] - 5 * v[..., 1, :] + 4 * v[..., 2, :] - v[..., 3, :]) / dx2
    out[..., -1, :] = (2 * v[..., -1, :] - 5 * v[..., -2, :] + 4 * v[..., -3, :] - v[..., -4, :]) / dx2
    return out


def real_x_only(field):
    s = field.diagonal
    return s is not None and not uses_var(s, "t") and is_real(s)


def three_point_terms(op):
    """The fields the solver applies as one three-point operator, (C^xx,
    D^x, E) or (C^xx, D^x) where E is not one of them, or None."""
    if not (real_x_only(op.c_xx) and real_x_only(op.d_x)) or (op.c_xx.is_constant and op.d_x.is_constant):
        return None
    return (op.c_xx, op.d_x, op.e) if real_x_only(op.e) else (op.c_xx, op.d_x)


def reference_three_point(u, c, d, e, grid):
    # c d_xx u + d d_x u + e u with the weights folded per node, c, d and e
    # s Id fields' values: (a u+ + b u) + e u- in the interior, and on a
    # line the one-sided rows of d_xx and d_x combined per edge row
    n = grid.nx
    c, d, e = (np.broadcast_to(np.real(v[0][2] if v else 0.0), (n,)) for v in (c, d, e))
    cc, dd = c / grid.dx**2, d / (2 * grid.dx)
    a, b, f = ((cc + dd)[:, None], (e - 2.0 * cc)[:, None], (cc - dd)[:, None])
    if grid.periodic:
        return (a * np.roll(u, -1, axis=-2) + b * u) + f * np.roll(u, 1, axis=-2)
    out = np.empty_like(u)
    out[..., 1:-1, :] = (a[1:-1] * u[..., 2:, :] + b[1:-1] * u[..., 1:-1, :]) + f[1:-1] * u[..., :-2, :]
    for i, rows, first in ((0, (0, 1, 2, 3), (-3, 4, -1, 0)), (n - 1, (n - 1, n - 2, n - 3, n - 4), (3, -4, 1, 0))):
        w = [(cc[i] * s2 + dd[i] * s1) + e[i] * s0 for s2, s1, s0 in zip((2, -5, 4, -1), first, (1, 0, 0, 0))]
        out[..., i, :] = w[0] * u[..., rows[0], :] + w[1] * u[..., rows[1], :] + w[2] * u[..., rows[2], :] + w[3] * u[..., rows[3], :]
    return out


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


def reference_solve_second_order(op, metric, grid, phi0_values, dtphi0_values, j0, source=None, span=None):
    grid.check_cfl(metric.max_light_speed())
    coeffs = coefficient_tape((op.c_tx.scale(2.0), op.c_xx, op.d_t, op.d_x, op.e, op.c_tt.inverse()), grid.xs)
    forcing = Tape(source.components, grid.xs) if source is not None else None
    fused = three_point_terms(op)

    def rhs(t, y):
        u, v = y
        c_tx2, c_xx, dt_c, dx_c, e_c, inv_tt = coeffs(t)
        ux = reference_d_x(u, grid)
        uxx = reference_d_xx(u, grid)
        vx = reference_d_x(v, grid)
        f = forcing.stack(t) if forcing is not None else 0.0
        if fused is None:
            load = f - contract(c_tx2, vx) - contract(c_xx, uxx) - contract(dt_c, v) - contract(dx_c, ux) - contract(e_c, u)
        else:
            # the three-point operator in C^xx's place, E u after D^t v where it is not folded in
            load = f - contract(c_tx2, vx) - reference_three_point(u, c_xx, dx_c, e_c if len(fused) == 3 else [], grid)
            load = load - contract(dt_c, v)
            if len(fused) == 2:
                load = load - contract(e_c, u)
        return (v.copy(), contract(inv_tt, load))

    y0 = (phi0_values.astype(complex).copy(), dtphi0_values.astype(complex).copy())
    u = reference_evolve(rhs, y0, grid, j0)
    if span is not None:  # the whole march, 0 outside the span
        lo, hi = span
        u.values[:lo] = 0.0
        u.values[hi + 1:] = 0.0
    return u


def reference_solve_first_order_direct(p, metric, phi0, grid):
    grid.check_cfl(metric.max_light_speed())
    coeffs = coefficient_tape((p.a_x, p.b, p.a_t.inverse()), grid.xs)

    def rhs(t, y):
        (u,) = y
        a_x, b, inv_t = coeffs(t)
        return (contract(inv_t, -(contract(a_x, reference_d_x(u, grid)) + contract(b, u))),)

    return reference_evolve(rhs, (phi0.values.astype(complex).copy(),), grid, phi0.level)


def reference_normal_derivative_data(p, metric, phi0):
    # the right-hand side of reference_solve_first_order_direct at t0,
    # masked to the support of the data
    grid = phi0.grid
    a_x, b, inv_t = coefficient_tape((p.a_x, p.b, p.a_t.inverse()), grid.xs)(phi0.t0)
    u = phi0.values.astype(complex)
    values = contract(inv_t, -(contract(a_x, reference_d_x(u, grid)) + contract(b, u)))
    values[(grid.xs < phi0.support[0]) | (grid.xs > phi0.support[1])] = 0.0
    return CauchyData(grid, phi0.t0, values, phi0.support)


# case name: (preset, mass); at mass 0.7 the Dirac square has E = 0.49 Id
PRESETS = {
    "dirac_massive": ("dirac_massive", 1.0),
    "dirac_mass_0.7": ("dirac_massive", 0.7),
    "scalar_transport_pair": ("scalar_transport_pair", 1.0),
}


def scenario(chart, case, metric_name):
    alpha, beta = METRICS[metric_name]
    metric = DiagonalMetric(alpha, beta, chart)
    preset, mass = PRESETS[case]
    p, q = resolve_preset(preset, mass, metric)
    grid = build_grid(chart, metric, 128)
    return metric, p, q, grid, ["1", "0.5"][:p.k]


def reference_solves(op, metric, grid, starts):
    # each start alone, in both directions: a driven start at an end of the
    # grid has nothing to march in the other
    return [
        reference_solve_second_order(op, metric, grid, u0, v0, j0, source, span)
        for u0, v0, j0, source, span in starts
    ]


def use_reference(monkeypatch):
    monkeypatch.setattr(cauchy, "solve_second_order", reference_solve_second_order)
    monkeypatch.setattr(greens, "_solve_second_order", reference_solves)
    monkeypatch.setattr(cauchy, "normal_derivative_data", reference_normal_derivative_data)


def driven_batch(grid, components):
    # sources with three time windows: the retarded members start at three
    # different steps and leave the stack at three different steps
    windows = [(-0.1, 0.02, 10.0), T_WINDOW, (0.08, 0.03, 10.0)]
    early, middle, late = (make_test_section(grid, components, X_WINDOW, w) for w in windows)
    return [(early, "retarded"), (middle, "retarded"), (late, "advanced"), (late, "retarded")]


def members_leave_mid_block(blocks):
    """Whether some block of the (stages, members) blocks of a march is cut
    short where a member leaves the stack, which the next block has fewer
    members for."""
    full = 2 * cauchy.BLOCK_STEPS + 1
    return any(s < full and m > m_next for (s, m), (_, m_next) in zip(blocks, blocks[1:]))


@pytest.mark.parametrize("metric_name", sorted(METRICS))
@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("solve", ["cauchy", "direct", "retarded", "advanced", "batched"])
def test_solutions_equal_the_unpruned_scheme(chart, monkeypatch, preset, metric_name, solve):
    metric, p, q, grid, components = scenario(chart, preset, metric_name)
    phi0 = make_cauchy_data(grid, components, 0.0)
    section = make_test_section(grid, components, X_WINDOW, T_WINDOW)
    if solve == "direct":
        actual = solve_first_order_direct(p, metric, phi0, grid).mesh()
        expected = reference_solve_first_order_direct(p, metric, phi0, grid).mesh()
    else:
        def run():
            if solve == "cauchy":
                return solve_cauchy(p, q, metric, phi0, grid)[0].mesh()
            if solve == "batched":
                jobs = driven_batch(grid, components)
                return np.stack([u.mesh() for u in greens.solve_driven(compose(p, q), metric, jobs, grid)])
            return greens_apply(p, q, metric, [(section, solve)], grid)[0].mesh()

        blocks = count_blocks(monkeypatch)
        actual = run()
        if solve == "batched":
            assert max(m for _, m in blocks) == 4 and members_leave_mid_block(blocks)
        use_reference(monkeypatch)
        expected = run()
    assert np.isfinite(actual).all()
    assert np.array_equal(actual, expected)


def count_runs(monkeypatch, module, name):
    """module.name binds its arguments and returns a run; record the
    arguments once per run."""
    runs = []
    real = getattr(module, name)

    def binding(*args):
        run = real(*args)

        def counted(*run_args):
            runs.append(args)
            return run(*run_args)

        return counted

    monkeypatch.setattr(module, name, binding)
    return runs


def count_stencil_runs(monkeypatch):
    """Record the order of every run of a march's stencils."""
    runs = count_runs(monkeypatch, cauchy, "_stencil")
    return lambda: [args[4] for args in runs]


def count_rhs_calls(monkeypatch):
    """Record the coefficient values of every right-hand-side evaluation:
    every run of a stage of a march's program."""
    calls = []
    march = cauchy._march

    def counting_march(program, *rest):
        def counted(*args):
            return [lambda c, f, run=run: calls.append(c) or run(c, f) for run in program(*args)]

        return march(counted, *rest)

    monkeypatch.setattr(cauchy, "_march", counting_march)
    return calls


def count_blocks(monkeypatch):
    """Record the (stages, members) of every block of every march."""
    blocks = []
    march = cauchy._march

    def counting_march(program, stages, *rest):
        return march(program, lambda ts: blocks.append(ts.shape[:2]) or stages(ts), *rest)

    monkeypatch.setattr(cauchy, "_march", counting_march)
    return blocks


@pytest.mark.parametrize(
    "case", [pytest.param("cauchy", id="False"), pytest.param("driven", id="True"), "zero_data", "mixed"]
)
def test_all_nonzero_fields_equal_the_unpruned_scheme(chart, mink, monkeypatch, case):
    # Q P = d_t^2 + 0.7 d_t d_x + 0.1 d_x^2 + 0.4 d_t + 0.11 d_x + 0.03
    p = FirstOrderOperator.build([[1.0]], [[0.5]], [[0.3]])
    q = FirstOrderOperator.build([[1.0]], [[0.2]], [[0.1]])
    op = compose(q, p)
    assert not any(f.is_zero for f in (op.c_tx, op.c_xx, op.d_t, op.d_x, op.e))
    grid = build_grid(chart, mink, 128)
    zeros = np.zeros((grid.nx, 1), dtype=complex)
    section = make_test_section(grid, ["1+x"], X_WINDOW, T_WINDOW)
    phi0 = make_cauchy_data(grid, ["1"], 0.0)
    if case == "driven":
        starts = [(zeros, zeros, 0, section)]
    elif case == "cauchy":
        starts = [(phi0.values, 0.5 * phi0.values, phi0.level)]
    elif case == "mixed":
        # one march: data at t0 under a source already on there, so both
        # its members are forced from their first stage, and a start from
        # zero data before the source, whose forcing starts inside its first
        # step, in the block where the other two are forced
        assert section.t_support[0] < phi0.t0 < section.t_support[1]
        starts = [(phi0.values, 0.5 * phi0.values, phi0.level, section), (zeros, zeros, 0, section)]
    else:
        starts = [(zeros, zeros, grid.nt // 2)]
    starts = [start + (None,) * (5 - len(start)) for start in starts]
    rhs_calls = count_rhs_calls(monkeypatch)
    actual = np.stack([u.mesh() for u in cauchy._solve_second_order(op, mink, grid, starts)])
    assert np.isfinite(actual).all()
    if case == "zero_data":
        assert not actual.any() and rhs_calls == []
    else:
        assert np.abs(actual).max() > 0 and rhs_calls
    assert np.array_equal(actual, np.stack([u.mesh() for u in reference_solves(op, mink, grid, starts)]))


def test_an_operator_with_no_lower_order_term_equals_the_unpruned_scheme(chart, mink):
    # d_t^2 u = 0: every field but C^tt folds to 0, so the right-hand side
    # returns the number 0.0 as the time derivative of v
    p = FirstOrderOperator.build([[1.0]], [[0.0]], [[0.0]])
    op = compose(p, p)
    assert all(f.is_zero for f in (op.c_tx, op.c_xx, op.d_t, op.d_x, op.e))
    grid = build_grid(chart, mink, 128)
    phi0 = make_cauchy_data(grid, ["1"], 0.0)
    args = (op, mink, grid, phi0.values, 0.5 * phi0.values, phi0.level)
    actual = solve_second_order(*args).mesh()
    assert np.abs(actual).max() > 0
    assert np.array_equal(actual, reference_solve_second_order(*args).mesh())


def dirac_scenario(chart, mink):
    p, q = build_dirac_pair(DiracModel(mass=1.0), mink)
    grid = build_grid(chart, mink, 128)
    return p, q, grid, make_test_section(grid, ["1", "0.5"], X_WINDOW, T_WINDOW)


def test_minkowski_dirac_rhs_takes_no_first_derivative(chart, mink, monkeypatch):
    # on Minkowski, 2C^tx and D^x of the Dirac square fold to 0, so the
    # right-hand side needs d_xx u alone; the unpruned scheme takes two d_x
    orders = count_stencil_runs(monkeypatch)
    p, q, grid, section = dirac_scenario(chart, mink)
    greens_apply(p, q, mink, [(section, "retarded")], grid)
    assert orders() and set(orders()) == {2}


def test_minkowski_dirac_rhs_makes_no_matrix_contraction(chart, mink, monkeypatch):
    # C^xx = -Id, E = m^2 Id and (C^tt)^-1 = Id on Minkowski: each is applied
    # as a sign or a number, where the unpruned scheme makes three contractions
    calls = count_runs(monkeypatch, bundle_ops, "_contraction")
    p, q, grid, section = dirac_scenario(chart, mink)
    u = greens.solve_driven(compose(p, q), mink, [(section, "retarded")], grid)[0]
    assert calls == [] and u.values.any()
    op = compose(p, q)
    assert (op.c_xx.scalar, op.e.scalar, op.c_tt.inverse().scalar) == (-1, 1, 1)


def test_curved_dirac_rhs_makes_no_matrix_contraction(chart, monkeypatch):
    # on the README metric every nonzero term of the Dirac square is s(t, x)
    # Id (C^xx, D^t, D^x, (C^tt)^-1), applied as one broadcast product
    metric = DiagonalMetric(*METRICS["readme"], chart)
    calls = count_runs(monkeypatch, bundle_ops, "_contraction")
    p, q = build_dirac_pair(DiracModel(mass=1.0), metric)
    grid = build_grid(chart, metric, 128)
    section = make_test_section(grid, ["1", "0.5"], X_WINDOW, T_WINDOW)
    u = greens.solve_driven(compose(p, q), metric, [(section, "retarded")], grid)[0]
    assert calls == [] and u.values.any()
    op = compose(p, q)
    fields = (op.c_xx, op.d_t, op.d_x, op.c_tt.inverse())
    assert all(f.diagonal is not None and not f.is_constant for f in fields)


def test_a_built_right_hand_side_sets_up_nothing_when_marched(chart, monkeypatch):
    # on the README metric the three-point weights are built with the
    # right-hand side: once _second_order_rhs has returned, a Cauchy solve
    # and a driven solve of the operator only run its ops
    metric = DiagonalMetric(*METRICS["readme"], chart)
    p, q = build_dirac_pair(DiracModel(mass=1.0), metric)
    grid = build_grid(chart, metric, 128)
    op = compose(q, p)
    cauchy._second_order_rhs(op, grid)

    def no_set_up(*args):
        raise AssertionError("three-point weights built during a march")

    monkeypatch.setattr(cauchy, "three_point_weights", no_set_up)
    phi0 = make_cauchy_data(grid, ["1", "0.5"], 0.0)
    u = solve_second_order(op, metric, grid, phi0.values, 0.5 * phi0.values, phi0.level)
    section = make_test_section(grid, ["1", "0.5"], X_WINDOW, T_WINDOW)
    v = greens.solve_driven(op, metric, [(section, "retarded")], grid)[0]
    assert u.values.any() and v.values.any()


def products(field, c, w, load):
    """field @ w as product applies it, and load - field @ w as a term of
    the right-hand-side program subtracts it from a later term's load,
    from a stage's forcing rows and, load None, from an unforced stage's 0."""
    out, into, scratch = (np.empty(w.shape, dtype=complex) for _ in range(3))
    results = [product(field)(w, out)(c).copy()]
    for first, f in ((load, None), (cauchy._FORCING, load), (None, None)):
        ops, result = cauchy._subtraction(field, 0, w, first, into, scratch)
        for op in ops:
            op([c], f)
        results.append(result.copy())
    return results


@pytest.mark.parametrize("s, c", [("1+0.3*cos(2*x)", 1), ("1+0.1*sin(t)", -2.5), ("(1+x)*(0.2+t)", 0.3 - 0.7j), ("t", 1)])
def test_shared_diagonal_fields_contract_as_the_matrix_product(s, c):
    # s * w equals contract's 0 + s * w up to the sign of zeros; s = t at a
    # scalar time comes from the tape as a Python float
    field = MatrixField.from_exprs([[s, 0], [0, s]]).scale(c)
    assert field.diagonal is not None and field.scalar is None
    xs = np.linspace(-1.0, 1.0, 128)
    c = coefficient_tape([field], xs)(0.25)[0]
    rng = np.random.default_rng(5)
    w, load = (rng.normal(size=(128, 2)) + 1j * rng.normal(size=(128, 2)) for _ in range(2))
    applied, later, forced, unforced = products(field, c, w, load)
    assert np.array_equal(applied, contract(c, w))
    assert np.array_equal(later, load - contract(c, w)) and np.array_equal(forced, later)
    assert np.array_equal(unforced, 0.0 - contract(c, w))


@pytest.mark.parametrize("c", [1, -1, 0.49, -2.5, 1j, 0.3 + 0.7j])
def test_constant_identity_fields_contract_as_the_matrix_product(c):
    # c Id w is applied as the number product c * w, for a complex c too
    field = MatrixField.from_constant(c * np.eye(2))
    rng = np.random.default_rng(5)
    w, load = (rng.normal(size=(128, 2)) + 1j * rng.normal(size=(128, 2)) for _ in range(2))
    assert field.scalar == c
    values = coefficient_tape([field], np.linspace(-1.0, 1.0, 128))(0.0)[0]
    applied, later, forced, unforced = products(field, values, w, load)
    assert np.array_equal(applied, c * w)
    assert np.array_equal(later, load - c * w) and np.array_equal(forced, later)
    assert np.array_equal(unforced, 0.0 - c * w)


def signed_zero_input(rng, shape):
    """Complex values with zeros of either sign in both parts on the first
    third of axis -2."""
    w = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    zeros = w[..., : shape[-2] // 3, :]
    zeros.real = np.copysign(0.0, rng.normal(size=zeros.shape))
    zeros.imag = np.copysign(0.0, rng.normal(size=zeros.shape))
    return w


CONTRACTED_FIELDS = {
    "gamma0": [[0, 1], [1, 0]],
    "gamma1": [[0, -1], [1, 0]],
    "klein_gordon_b": [[0, 1.0], [-1.0, 0]],
    "zero_row": [[0.3 - 0.2j, -1.5], [0, 0]],
    "diagonal": [[0.5, 0], [0, -2.0]],
    "dense": [[0.3 + 0.7j, -1.2], [2.5j, 0.49]],
}


@pytest.mark.parametrize("name", sorted(CONTRACTED_FIELDS))
def test_constant_fields_are_contracted_entry_by_entry(name):
    # a constant field other than c Id is contracted from its tape entries:
    # each row's first entry times its column, the later ones added, and a
    # row with no entry filled with 0
    field = MatrixField.from_constant(CONTRACTED_FIELDS[name])
    assert field.is_constant and field.scalar is None
    values = coefficient_tape([field], np.linspace(-1.0, 1.0, 64))(0.0)[0]
    assert [(i, j) for i, j, _ in values] == [(i, j) for i, j, _ in field.nonzero()]
    assert all(np.ndim(v) == 0 for _, _, v in values)
    rng = np.random.default_rng(11)
    w, load = (signed_zero_input(rng, (2, 64, 2)) for _ in range(2))
    applied, later, forced, unforced = products(field, values, w, load)
    assert np.array_equal(applied, contract(values, w))
    assert np.array_equal(later, load - contract(values, w)) and np.array_equal(forced, later)
    assert np.array_equal(unforced, 0.0 - contract(values, w))
    if name == "zero_row":
        empty = np.stack([applied[..., 1].real, applied[..., 1].imag])
        assert not empty.any() and not np.signbit(empty).any()


def test_flat_direct_march_makes_no_matmul(chart, monkeypatch):
    # the flat Dirac pair's A^x and the inverse of A^t are constant, not
    # c Id: the march contracts them from their entries
    metric, p, q, grid, components = scenario(chart, "dirac_massive", "minkowski")
    phi0 = make_cauchy_data(grid, components, 0.0)
    calls = count_runs(monkeypatch, bundle_ops, "_contraction")
    matmuls = []
    real = np.matmul

    def spy(*args, **kwargs):
        matmuls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    u = solve_first_order_direct(p, metric, phi0, grid)
    assert matmuls == [] and calls and np.isfinite(u.values).all() and u.values.any()


@pytest.mark.parametrize("metric_name", sorted(METRICS))
@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_operator_application_equals_the_contraction_only_form(chart, monkeypatch, preset, metric_name):
    # apply_operator and the normal derivative data apply each field through
    # bundle_ops.product; the form that contracts every field gives equal values
    metric = DiagonalMetric(*METRICS[metric_name], chart)
    p, q = resolve_preset(preset, 0.0 if preset == "dirac_massless" else 1.0, metric)
    grid = build_grid(chart, metric, 128)
    phi0 = make_cauchy_data(grid, ["1", "0.5"][:p.k], 0.0)
    phi = solve_first_order_direct(p, metric, phi0, grid)
    ops = (p, q, formal_adjoint(p, metric), compose(q, p), compose(formal_adjoint(p, metric), formal_adjoint(q, metric)))

    def run():
        return [bundle_ops.apply_operator(op, phi).mesh() for op in ops] + [cauchy.normal_derivative_data(p, metric, phi0).values]

    actual = run()

    def contracting(w, out):
        return lambda c: np.copyto(out, contract(c, w)) or out

    for mod in (bundle_ops, cauchy):
        monkeypatch.setattr(mod, "product", lambda field: contracting)
    expected = run()
    assert all(np.isfinite(a).all() and np.abs(a).max() > 0 for a in actual)
    for a, e in zip(actual, expected):
        assert np.array_equal(a, e)


@pytest.mark.parametrize("direction", ["retarded", "advanced"])
def test_driven_sweep_starts_at_its_first_forced_stage(chart, mink, monkeypatch, direction):
    # a sweep from zero data marches from the first step with a stage inside
    # the source's time support, where it is forced; the levels before it
    # stay 0, and its output holds the levels from the one that step
    # reaches on.  The source is 0 at the first forced stages, where its
    # window has not yet left 0 in floating point
    orders = count_stencil_runs(monkeypatch)
    p, q, grid, section = dirac_scenario(chart, mink)
    greens_apply(p, q, mink, [(section, direction)], grid)
    lo, hi = section.t_support
    order = np.arange(grid.nt) if direction == "retarded" else np.arange(grid.nt)[::-1]
    dt = grid.dt if direction == "retarded" else -grid.dt
    stages = np.empty(2 * grid.nt - 1)
    stages[0::2] = grid.ts[order]
    stages[1::2] = grid.ts[order[:-1]] + dt / 2
    forced = int(np.argmax((stages >= lo) & (stages <= hi)))
    assert not lo <= stages[forced - 1] <= hi and lo <= stages[forced] <= hi
    source = Tape(section.components, grid.xs).stack(stages[:, None])
    assert not source[:forced].any() and source[forced:].any()
    first = max(0, (forced - 1) // 2)
    assert first > 0.2 * grid.nt
    assert orders() == [2] * 4 * (grid.nt - 1 - first)

    u = greens.solve_driven(compose(p, q), mink, [(section, direction)], grid)[0]
    held = (order[first + 1], grid.nt) if direction == "retarded" else (0, order[first + 1] + 1)
    assert (u.first, u.stop) == held
    mesh = u.mesh()
    assert not mesh[order[:first + 1]].any() and mesh[order[first + 1:]].any()
    outside = grid.ts < lo if direction == "retarded" else grid.ts > hi
    assert not mesh[outside].any()


# the lockstep march: both halves of a solve as one stacked state

def lockstep_case(chart, metric_name, t0):
    metric, p, q, grid, components = scenario(chart, "dirac_massive", metric_name)
    # the steeper window keeps the causal margin from either edge of the chart
    return metric, p, q, grid, make_cauchy_data(grid, components, t0, steepness=10.0)


@pytest.mark.parametrize("metric_name", ["readme", "varying"])
@pytest.mark.parametrize("t0, halves", [
    (0.0, "centred"), (0.1, "off-centre"), (-0.3, "backward empty"), (0.3, "forward empty"),
])
def test_lockstep_solutions_equal_the_unpruned_scheme(chart, monkeypatch, metric_name, t0, halves):
    metric, p, q, grid, phi0 = lockstep_case(chart, metric_name, t0)
    j0, off = phi0.level, abs(2 * phi0.level - (grid.nt - 1))
    assert {"centred": off <= 1, "off-centre": 1 < off < grid.nt - 1,
            "backward empty": j0 == 0, "forward empty": j0 == grid.nt - 1}[halves]
    direct = solve_first_order_direct(p, metric, phi0, grid)
    assert np.array_equal(direct.mesh(), reference_solve_first_order_direct(p, metric, phi0, grid).mesh())
    actual = solve_cauchy(p, q, metric, phi0, grid)[0]
    use_reference(monkeypatch)
    expected = solve_cauchy(p, q, metric, phi0, grid)[0]
    assert np.isfinite(actual.mesh()).all() and np.abs(actual.mesh()).max() > 0
    assert np.array_equal(actual.mesh(), expected.mesh())


@pytest.mark.parametrize("t0", [0.0, 0.1, "driven"])
def test_lockstep_on_a_circle_equals_the_unpruned_scheme(monkeypatch, t0):
    chart = Chart1p1(-0.3, 0.3, -1.0, 1.0, topology="circle")
    metric = DiagonalMetric(*METRICS["readme"], chart)
    p, q = build_dirac_pair(DiracModel(mass=1.0), metric)
    grid = build_grid(chart, metric, 128)
    if t0 == "driven":
        # four driven members stacked, their stencils wrapped around
        jobs = driven_batch(grid, ["cos(pi*x)", "0.5"])
        actual = np.stack([u.mesh() for u in greens.solve_driven(compose(p, q), metric, jobs, grid)])
        use_reference(monkeypatch)
        expected = np.stack([u.mesh() for u in greens.solve_driven(compose(p, q), metric, jobs, grid)])
        assert np.isfinite(actual).all() and np.abs(actual).max() > 0
        assert np.array_equal(actual, expected)
        return
    phi0 = make_cauchy_data(grid, ["cos(pi*x)", "0.5"], t0, halfwidth=2.0)
    direct = solve_first_order_direct(p, metric, phi0, grid)
    assert np.array_equal(direct.mesh(), reference_solve_first_order_direct(p, metric, phi0, grid).mesh())
    actual = solve_cauchy(p, q, metric, phi0, grid)[0]
    use_reference(monkeypatch)
    expected = solve_cauchy(p, q, metric, phi0, grid)[0]
    assert np.isfinite(actual.mesh()).all() and actual.mesh()[0].any() and actual.mesh()[-1].any()
    assert np.array_equal(actual.mesh(), expected.mesh())


@pytest.mark.parametrize("t0", [0.0, 0.1])
def test_a_cauchy_solve_makes_four_rhs_calls_per_step_of_its_longer_half(chart, monkeypatch, t0):
    # the halves step together, stacked, until the shorter one is done; the
    # unstacked scheme makes 4 (nt - 1) calls.  On the README metric the
    # t-dependent coefficient values of a call have one row per member
    calls = count_rhs_calls(monkeypatch)
    metric, p, q, grid, phi0 = lockstep_case(chart, "readme", t0)
    solve_cauchy(p, q, metric, phi0, grid)
    j0, longest = phi0.level, max(phi0.level, grid.nt - 1 - phi0.level)
    assert len(calls) == 4 * longest < 4 * (grid.nt - 1)
    shorter = min(j0, grid.nt - 1 - j0)
    members = [{len(v) for field in c if isinstance(field, list) for _, _, v in field if np.ndim(v) == 2} for c in calls]
    assert members == [{2}] * 4 * shorter + [{1}] * 4 * (longest - shorter)


def count_tape_runs(monkeypatch):
    """Record the stage times of every run of a tape's t-dependent slots."""
    runs = []
    real = Tape._run

    def counting(self, code, vals, t):
        if code is self._dynamic:
            runs.append(np.shape(t))
        return real(self, code, vals, t)

    monkeypatch.setattr(Tape, "_run", counting)
    return runs


def test_curved_solve_runs_the_coefficient_tape_once_per_block(chart, monkeypatch):
    # each block of BLOCK_STEPS steps of a lockstep segment evaluates its
    # stage times, both ends included, in one run of the tape, which gives
    # every right-hand-side call of the block its coefficient values
    metric = DiagonalMetric(*METRICS["readme"], chart)
    p, q = build_dirac_pair(DiracModel(mass=1.0), metric)
    grid = build_grid(chart, metric, 256)
    phi0 = make_cauchy_data(grid, ["1", "0.5"], 0.05)
    j0 = phi0.level
    shorter, longest = sorted((j0, grid.nt - 1 - j0))
    runs = count_tape_runs(monkeypatch)
    dtphi0 = 0.5 * phi0.values
    solve_second_order(compose(q, p), metric, grid, phi0.values, dtphi0, j0)
    block = cauchy.BLOCK_STEPS
    assert len(runs) == math.ceil(shorter / block) + math.ceil((longest - shorter) / block) < longest / 8
    segments = ((2, shorter), (1, longest - shorter))  # (members, steps)
    assert runs == [(2 * min(block, n - s) + 1, m, 1) for m, n in segments for s in range(0, n, block)]


def count_bound_calls(monkeypatch):
    """Record the callable of every call a march's steps make through the
    functools.partial objects it binds, the field of every coefficient
    product they run (cauchy.product's closures), and the steps of each
    march: the partials and products are made while a segment is built,
    and the calls are counted from the first block's coefficient values
    to the end of the march, outside the coefficient tape's runs."""
    calls, products, steps, counting = [], [], [], [False]

    class Counting(functools.partial):
        def __call__(self, *args, **kwargs):
            if counting[0]:
                calls.append(self.func)
            return super().__call__(*args, **kwargs)

    real_product = cauchy.product

    def counted_product(field):
        bind = real_product(field)

        def binding(w, out):
            run = bind(w, out)
            return lambda c: (products.append(field) if counting[0] else None) or run(c)

        return binding

    real = cauchy._rk4

    def rk4(program, stages, members, grid):
        steps.append(max(len(m.levels) - m.first for m in members))

        def counted(ts):
            counting[0] = False
            block = stages(ts)
            counting[0] = True
            return block

        try:
            real(program, counted, members, grid)
        finally:
            counting[0] = False

    monkeypatch.setattr(functools, "partial", Counting)
    monkeypatch.setattr(cauchy, "product", counted_product)
    monkeypatch.setattr(cauchy, "_rk4", rk4)
    return calls, products, steps


@pytest.mark.parametrize("metric_name, nx, per_step, products_of", [
    ("minkowski", 512, 42, ()),
    ("readme", 160, 46, ("d_t", "c_tt")),
    ("varying", 160, 62, ("c_xx", "d_t", "d_x", "e", "c_tt")),
], ids=["minkowski-512-42", "readme-160-46", "varying-160-62"])
def test_a_lockstep_step_makes_a_fixed_number_of_bound_numpy_calls(chart, monkeypatch, metric_name, nx, per_step, products_of):
    # a centred Cauchy solve marches two members in lockstep; each step
    # makes the same bound calls, each one numpy call: a ufunc, a ufunc's
    # reduce or an array's take or fill, so the count repeats exactly.  On
    # the README metric a stage's C^xx d_x^2 u + D^x d_x u + E u is one
    # three-point operator, 8 bound calls where two stencils made 12, and
    # its coefficient products, closures, are D^t's and (C^tt)^-1's.  On
    # the general metric C^xx depends on t and D^t, D^x and E are not s Id:
    # two stencils and five products a stage
    metric = DiagonalMetric(*METRICS[metric_name], chart)
    p, q = build_dirac_pair(DiracModel(mass=1.0), metric)
    grid = build_grid(chart, metric, nx)
    phi0 = make_cauchy_data(grid, ["1", "0.5"], 0.0, steepness=10.0)
    calls, products, steps = count_bound_calls(monkeypatch)
    cauchy.solve_cauchy_plain(p, q, metric, phi0, grid)
    assert steps == [max(phi0.level, grid.nt - 1 - phi0.level)] and abs(2 * phi0.level - (grid.nt - 1)) <= 1
    assert len(calls) == per_step * steps[0]
    assert all(isinstance(f, np.ufunc) or isinstance(getattr(f, "__self__", None), (np.ndarray, np.ufunc)) for f in calls)
    op = compose(q, p)
    fields = [op.c_tt.inverse() if name == "c_tt" else getattr(op, name) for name in products_of]
    assert len(products) == 4 * len(fields) * steps[0]
    assert {f.entries for f in products} == {f.entries for f in fields}


def record_step_coefficients(monkeypatch):
    """Record, per stage-state and update op list a march builds, the shape
    of its coefficient and of the arrays it scales."""
    shapes = []
    stage_state, update = cauchy._stage_state, cauchy._update

    def recording_stage_state(into, y, a, k):
        shapes.append((np.shape(a), into.shape))
        return stage_state(into, y, a, k)

    def recording_update(y, a, derivs):
        shapes.append((np.shape(a), y.shape))
        return update(y, a, derivs)

    monkeypatch.setattr(cauchy, "_stage_state", recording_stage_state)
    monkeypatch.setattr(cauchy, "_update", recording_update)
    return shapes


def count_three_points(monkeypatch):
    """Record every three-point operator a march binds."""
    built = []
    real = cauchy._three_point
    monkeypatch.setattr(cauchy, "_three_point", lambda *args: built.append(args) or real(*args))
    return built


@pytest.mark.parametrize("metric_name", ["minkowski", "readme"])
@pytest.mark.parametrize("solve", ["cauchy", "retarded", "both"])
def test_stage_coefficients_broadcast_no_column(chart, monkeypatch, metric_name, solve):
    # dt/2, dt and dt/6 are numbers where a segment's members share a step
    # sign and arrays of the stage state's shape where they do not, never
    # a (members, 1, 1) column; a Minkowski march binds no three-point
    # operator, a README one one per stage of each segment
    metric, p, q, grid, components = scenario(chart, "dirac_massive", metric_name)
    shapes, built = record_step_coefficients(monkeypatch), count_three_points(monkeypatch)
    if solve == "cauchy":
        phi0 = make_cauchy_data(grid, components, 0.0, steepness=10.0)
        u = [solve_cauchy_plain(p, q, metric, phi0, grid)]
    else:
        section = make_test_section(grid, components, X_WINDOW, T_WINDOW)
        jobs = [(section, "retarded")] + ([(section, "advanced")] if solve == "both" else [])
        u = greens.solve_driven(compose(p, q), metric, jobs, grid)
    assert all(np.abs(v.values).max() > 0 for v in u)
    # the first segment has both directions unless the march is one-sided
    mixed = solve != "retarded"
    assert shapes and shapes[0][0] == (shapes[0][1] if mixed else ())
    assert all(a in ((), into) for a, into in shapes) and all(a == () for a, _ in shapes[4:])
    segments = len(shapes) // 4
    assert len(built) == (0 if metric_name == "minkowski" else 4 * segments)


@pytest.mark.parametrize("metric_name", ["readme", "varying"])
@pytest.mark.parametrize("direction", ["retarded", "advanced", "both"])
def test_adjoint_driven_solves_equal_the_unpruned_scheme(chart, monkeypatch, metric_name, direction):
    # the driven solves of P* Q* that adjoint-check makes, both directions
    # as one march as it makes them.  On the README metric d_t beta =
    # d_x alpha = 0, so the adjoint's divergence term is 0 and every field
    # is s Id, applied as a broadcast product or a number.  On the varying
    # metric D^t, D^x and E are non-constant fields with two different
    # diagonal entries, contracted entry by entry
    metric, p, q, grid, components = scenario(chart, "dirac_massive", metric_name)
    op = compose(formal_adjoint(p, metric), formal_adjoint(q, metric))
    section = make_test_section(grid, components, X_WINDOW, T_WINDOW)
    directions = ["advanced", "retarded"] if direction == "both" else [direction]
    contractions = count_runs(monkeypatch, bundle_ops, "_contraction")
    solutions = greens.solve_driven(op, metric, [(section, d) for d in directions], grid)
    if metric_name == "readme":
        fields = (op.c_tt, op.c_tx, op.c_xx, op.d_t, op.d_x, op.e)
        assert all(f.diagonal is not None for f in fields) and not contractions
    else:
        assert all(f.diagonal is None and not f.is_constant for f in (op.d_t, op.d_x, op.e)) and contractions
    zeros = np.zeros((grid.nx, 2), dtype=complex)
    for d, actual in zip(directions, solutions):
        j0 = 0 if d == "retarded" else grid.nt - 1
        expected = reference_solve_second_order(op, metric, grid, zeros, zeros, j0, source=section)
        assert np.isfinite(actual.mesh()).all() and np.abs(actual.mesh()).max() > 0
        assert np.array_equal(actual.mesh(), expected.mesh())


# the three-point x-operator: C^xx d_x^2 + D^x d_x (+ E) as one operator
# where C^xx and D^x are real s Id fields free of t, one not constant

def scalar_operator(c_xx, d_x, e):
    """A rank-1 second-order operator with C^tt = 1, C^tx = 0, D^t = 0.1
    and the given C^xx, D^x and E, fields or expression strings."""
    def field(v):
        return v if isinstance(v, MatrixField) else MatrixField.from_exprs([[v]])

    return SecondOrderOperator(1, field("1"), field("0"), field(c_xx), field("0.1"), field(d_x), field(e))


# C^xx, D^x, E and the fields the three-point operator takes: 3 with E, 2
# without, 0 where the stencils stay
SCALAR_CASES = {
    "x_only": ("-(1+0.3*cos(2*x))", "0.2*sin(x)", "0.5", 3),
    "constant_c_xx": ("-1", "0.2*sin(x)", "0.5*cos(x)", 3),
    "zero_e": ("-(1+0.3*cos(2*x))", "0.2*sin(x)", "0", 3),
    "complex_e": ("-(1+0.3*cos(2*x))", "0.2*sin(x)", MatrixField.from_constant([[0.5j]]), 2),
    "t_dependent_e": ("-(1+0.3*cos(2*x))", "0.2*sin(x)", "0.5*(1+t)", 2),
    "complex_d_x": ("-(1+0.3*cos(2*x))", MatrixField.from_exprs([["sin(x)"]]).scale(0.2j), "0.5", 0),
    "t_dependent_c_xx": ("-(1+0.3*t)", "0.2*sin(x)", "0.5", 0),
    "constant": ("-1", "0.2", "0.5", 0),
}


@pytest.mark.parametrize("topology", ["line", "circle"])
@pytest.mark.parametrize("start", ["cauchy", "driven"])
@pytest.mark.parametrize("case", sorted(SCALAR_CASES))
def test_three_point_operator_equals_the_unpruned_scheme(monkeypatch, case, start, topology):
    # the reference applies the same weights in the same place; a complex
    # or t-dependent C^xx or D^x, or two constant ones, keep the stencils,
    # and a complex or t-dependent E stays a term of its own
    c_xx, d_x, e, fields = SCALAR_CASES[case]
    op = scalar_operator(c_xx, d_x, e)
    assert len(three_point_terms(op) or ()) == fields
    chart = Chart1p1(-0.3, 0.3, -1.0, 1.0, topology=topology)
    metric = DiagonalMetric("1", "1", chart)
    grid = build_grid(chart, metric, 128)
    if start == "cauchy":
        phi0 = make_cauchy_data(grid, ["1"], 0.0, halfwidth=2.0 if topology == "circle" else 0.05)
        args, source = (phi0.values, 0.5 * phi0.values, phi0.level), None
    else:
        zeros = np.zeros((grid.nx, 1), dtype=complex)
        args, source = (zeros, zeros, 0), make_test_section(grid, ["1+x"], X_WINDOW, T_WINDOW)
    built = count_three_points(monkeypatch)
    actual = cauchy._solve_second_order(op, metric, grid, [args + (source, None)])[0].mesh()
    assert bool(built) == bool(fields) and len(built) % 4 == 0
    expected = reference_solve_second_order(op, metric, grid, *args, source=source).mesh()
    assert np.isfinite(actual).all() and np.abs(actual).max() > 0
    assert np.array_equal(actual, expected)


@pytest.mark.parametrize("case", ["readme_massless", "alpha_x_qp", "alpha_x_adjoint"])
def test_three_point_dirac_marches_equal_the_unpruned_scheme(chart, monkeypatch, case):
    # m = 0 prunes E on the README metric; with alpha = alpha(x) and beta =
    # 1, C^xx = -Id is constant and D^x is not, and P* Q*'s E is a matrix,
    # so it stays a term of its own
    alpha_x = ("1+0.3*cos(2*x)", "1")
    metric = DiagonalMetric(*(METRICS["readme"] if case == "readme_massless" else alpha_x), chart)
    p, q = build_dirac_pair(DiracModel(mass=0.0 if case == "readme_massless" else 1.0), metric)
    grid = build_grid(chart, metric, 128)
    built = count_three_points(monkeypatch)
    if case == "alpha_x_adjoint":
        op = compose(formal_adjoint(p, metric), formal_adjoint(q, metric))
        section = make_test_section(grid, ["1", "0.5"], X_WINDOW, T_WINDOW)
        zeros = np.zeros((grid.nx, 2), dtype=complex)
        jobs = [(section, "advanced"), (section, "retarded")]
        actual = np.stack([u.mesh() for u in greens.solve_driven(op, metric, jobs, grid)])
        expected = np.stack([
            reference_solve_second_order(op, metric, grid, zeros, zeros, j0, source=section).mesh()
            for j0 in (grid.nt - 1, 0)
        ])
        assert len(three_point_terms(op)) == 2 and op.e.diagonal is None
    else:
        op = compose(q, p)
        phi0 = make_cauchy_data(grid, ["1", "0.5"], 0.0, steepness=10.0)
        actual = solve_cauchy(p, q, metric, phi0, grid)[0].mesh()
        use_reference(monkeypatch)
        expected = solve_cauchy(p, q, metric, phi0, grid)[0].mesh()
        assert len(three_point_terms(op)) == 3 and op.c_xx.is_constant != (case == "readme_massless")
        assert op.e.is_zero == (case == "readme_massless")
    assert built
    assert np.isfinite(actual).all() and np.abs(actual).max() > 0
    assert np.array_equal(actual, expected)


@pytest.mark.parametrize("beta", ["1+0.1*sqrt(t+0.3)", "1+0.1*sqrt(0.3-t)"])
@pytest.mark.parametrize("t0", [0.0, 0.1])
@pytest.mark.parametrize("solve", ["cauchy", "direct"])
def test_non_finite_coefficients_raise_as_stage_by_stage(chart, monkeypatch, beta, t0, solve):
    # d beta is infinite at one end of the chart, the last level of one
    # half, which lies in a later block; the error names the operation and
    # the first (t, x) in march order, as evaluating stage by stage does
    metric = DiagonalMetric("1", beta, chart)
    p, q = build_dirac_pair(DiracModel(mass=1.0), metric)
    grid = build_grid(chart, metric, 128)
    phi0 = make_cauchy_data(grid, ["1", "0.5"], t0, steepness=10.0)

    def run():
        with pytest.raises(ExprEvalError) as exc:
            if solve == "cauchy":
                solve_cauchy(p, q, metric, phi0, grid)
            else:
                solve_first_order_direct(p, metric, phi0, grid)
        return str(exc.value), exc.value.t, exc.value.x

    runs = count_tape_runs(monkeypatch)
    actual = run()
    assert any(len(shape) == 3 for shape in runs)
    assert abs(actual[1] - t0) > cauchy.BLOCK_STEPS * grid.dt
    # the reference evaluates each stage time alone
    monkeypatch.setattr(Tape, "stages", lambda self, ts: [self(t) for t in ts])
    assert run() == actual


# the batched march: the driven solves of one operator as one stacked state

def count_marches(monkeypatch):
    """Record the number of starts of every march."""
    marches = []
    real = cauchy._march

    def counting(rhs, stages, grid, starts):
        marches.append(len(starts))
        return real(rhs, stages, grid, starts)

    monkeypatch.setattr(cauchy, "_march", counting)
    return marches


@pytest.mark.parametrize("metric_name", sorted(METRICS))
def test_batched_driven_solves_equal_the_solves_one_at_a_time(chart, monkeypatch, metric_name):
    # two sources with different time windows in both directions: the
    # members start at different first forced steps, so their lockstep
    # segments have unequal lengths, and opposite directions march together
    metric, p, q, grid, components = scenario(chart, "dirac_massive", metric_name)
    op = compose(p, q)
    early = make_test_section(grid, components, X_WINDOW, (-0.1, 0.02, 10.0))
    late = make_test_section(grid, components[::-1], (0.1, 0.05, 2.5), (0.08, 0.03, 10.0))
    jobs = [(early, "retarded"), (late, "advanced"), (late, "retarded"), (early, "advanced")]
    marches = count_marches(monkeypatch)
    batched = greens.solve_driven(op, metric, jobs, grid)
    assert marches == [4]
    firsts = []
    for (source, direction), u in zip(jobs, batched):
        alone = greens.solve_driven(op, metric, [(source, direction)], grid)[0]
        assert np.isfinite(u.mesh()).all() and np.abs(u.mesh()).max() > 0
        assert np.array_equal(u.mesh(), alone.mesh())
        order = np.arange(grid.nt) if direction == "retarded" else np.arange(grid.nt)[::-1]
        firsts.append(int(np.argmax(u.mesh()[order].any(axis=(1, 2)))))
    assert len(set(firsts)) == 4


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_batched_member_that_blows_up_raises_with_its_level_and_time(chart, mink):
    # (d_t - b)(d_t + b) = d_t^2 - b^2: with b = 1e4, RK4 at this dt grows
    # the solution about 1e5-fold per step, so a solve overflows when it
    # has most of the chart to march and stays finite with a few steps left
    b = 1e4
    op = compose(FirstOrderOperator.build([[1.0]], [[0.0]], [[-b]]), FirstOrderOperator.build([[1.0]], [[0.0]], [[b]]))
    grid = build_grid(chart, mink, 128)
    early = make_test_section(grid, ["1"], X_WINDOW, (-0.15, 0.01, 40.0))
    late = make_test_section(grid, ["1"], X_WINDOW, (0.15, 0.01, 40.0))
    assert np.isfinite(greens.solve_driven(op, mink, [(late, "retarded")], grid)[0].values).all()
    alone = {}
    for job in ((early, "retarded"), (late, "advanced")):
        with pytest.raises(cauchy.SolverBlowupError) as exc:
            greens.solve_driven(op, mink, [job], grid)
        alone[job[1]] = (exc.value.level, exc.value.t)
    assert alone["retarded"] != alone["advanced"]
    for jobs in (
        [(late, "retarded"), (early, "retarded")],
        [(late, "retarded"), (late, "advanced"), (early, "retarded")],
        [(early, "retarded"), (late, "advanced")],
    ):
        with pytest.raises(cauchy.SolverBlowupError) as exc:
            greens.solve_driven(op, mink, jobs, grid)
        blown = next(direction for source, direction in jobs if not (source is late and direction == "retarded"))
        assert (exc.value.level, exc.value.t) == alone[blown]


def count_member_steps(monkeypatch):
    """Record the steps each march's members take, per march."""
    steps = []
    real = cauchy._rk4

    def counting(program, stages, members, grid):
        steps.append(sum(len(m.levels) - m.first for m in members))
        return real(program, stages, members, grid)

    monkeypatch.setattr(cauchy, "_rk4", counting)
    return steps


@pytest.mark.parametrize("metric_name", sorted(METRICS))
@pytest.mark.parametrize("start", ["cauchy", "retarded", "advanced"])
def test_a_spanned_march_equals_the_full_march_on_its_span(chart, monkeypatch, metric_name, start):
    # the span ends inside the source's time support and on both sides of
    # t0, so every member that marches stops short of the grid's end
    metric, p, q, grid, components = scenario(chart, "dirac_massive", metric_name)
    section = make_test_section(grid, components, X_WINDOW, T_WINDOW)
    lo, hi = span = (grid.nt // 4, 3 * grid.nt // 5)
    phi0 = make_cauchy_data(grid, components, 0.0)
    assert lo < phi0.level < hi and section.t_support[0] < grid.ts[hi] < section.t_support[1]
    steps = count_member_steps(monkeypatch)
    if start == "cauchy":
        full, spanned = (solve_cauchy_plain(p, q, metric, phi0, grid, s).mesh() for s in (None, span))
        assert steps == [grid.nt - 1, hi - lo]
    else:
        op = compose(p, q)
        full, spanned = (greens.solve_driven(op, metric, [(section, start, s)], grid)[0].mesh() for s in (None, span))
        assert steps[1] < steps[0]
    assert np.abs(full[lo:hi + 1]).max() > 0
    assert np.array_equal(spanned[lo:hi + 1], full[lo:hi + 1])
    assert not spanned[:lo].any() and not spanned[hi + 1:].any()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("direction", ["retarded", "advanced"])
def test_a_blow_up_inside_a_span_raises_at_its_first_non_finite_level(chart, mink, direction):
    # the overflowing operator of the batched blow-up test: a span that
    # reaches past the first non-finite level raises at that level, so does
    # one that starts after it, whose output does not hold that level, and
    # one that ends before it stays finite
    b = 1e4
    op = compose(FirstOrderOperator.build([[1.0]], [[0.0]], [[-b]]), FirstOrderOperator.build([[1.0]], [[0.0]], [[b]]))
    grid = build_grid(chart, mink, 128)
    center = -0.15 if direction == "retarded" else 0.15
    section = make_test_section(grid, ["1"], X_WINDOW, (center, 0.01, 40.0))
    with pytest.raises(cauchy.SolverBlowupError) as exc:
        greens.solve_driven(op, mink, [(section, direction)], grid)
    level = exc.value.level
    if direction == "retarded":
        before, past, after = (0, level - 1), (0, level + 3), (level + 3, grid.nt - 1)
    else:
        before, past, after = (level + 1, grid.nt - 1), (level - 3, grid.nt - 1), (0, level - 3)
    for span in (past, after):
        with pytest.raises(cauchy.SolverBlowupError) as exc:
            greens.solve_driven(op, mink, [(section, direction, span)], grid)
        assert (exc.value.level, exc.value.t) == (level, grid.ts[level])
    assert np.isfinite(greens.solve_driven(op, mink, [(section, direction, before)], grid)[0].values).all()
