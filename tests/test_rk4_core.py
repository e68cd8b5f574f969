"""The pruned RK4 core against the unpruned scheme it replaced.

The solvers leave out coefficient fields that fold to 0 and the stencils
only they need, apply constant c Id fields as numbers, sample a driven
solve's source once per sweep inside its time support, start a sweep
from zero data at its first forced stage, march the directions of every
start of a march (the two halves of a Cauchy solve, the driven solves a
battery batches) in lockstep as one stacked state and evaluate the
coefficients once per block of steps.  The reference below keeps the full scheme: all five
matrix contractions of the second-order right-hand side, both terms of the
direct one, the coefficients at every stage, the source sampled at every
stage time, every level marched, one half after the other, and the states
collected per level; its stencils and RK4 update are the complex
formulas, where the solvers run both on float64 views.  Solutions must be
equal under np.array_equal, since a - 0 = a, c Id w = c w, zero data
under zero forcing stay 0, a complex number times or over a real one
rounds as its parts do, and the remaining operations run in the same
order (zeros may differ in sign).
"""

import math

import numpy as np
import pytest

from prehyp import bundle_ops, cauchy, greens
from prehyp.bundle_ops import FirstOrderOperator, MatrixField, coefficient_tape, compose, contract, formal_adjoint, product
from prehyp.cauchy import solve_cauchy, solve_first_order_direct, solve_second_order
from prehyp.config import PRESETS as PRESET_NAMES, resolve_preset
from prehyp.expr import ExprEvalError, Tape
from prehyp.geometry import Chart1p1, DiagonalMetric
from prehyp.grids import GridSection, build_grid, make_cauchy_data
from prehyp.greens import greens_apply, make_test_section
from prehyp.qft_dirac import DiracModel, build_dirac_pair

X_WINDOW = (0.0, 0.05, 2.5)
T_WINDOW = (0.0, 0.02, 10.0)
METRICS = {
    "minkowski": ("1", "1"),
    "readme": ("1+0.1*sin(t)", "1+0.3*cos(2*x)"),
    "varying": ("1+0.3*x", "1+0.3*t"),
}


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
        ux = reference_d_x(u, grid)
        uxx = reference_d_xx(u, grid)
        vx = reference_d_x(v, grid)
        f = forcing.stack(t) if forcing is not None else 0.0
        load = f - contract(c_tx2, vx) - contract(c_xx, uxx) - contract(dt_c, v) - contract(dx_c, ux) - contract(e_c, u)
        return (v.copy(), contract(inv_tt, load))

    y0 = (phi0_values.astype(complex).copy(), dtphi0_values.astype(complex).copy())
    return reference_evolve(rhs, y0, grid, j0)


def reference_solve_first_order_direct(p, metric, phi0, grid):
    grid.check_cfl(metric.max_light_speed())
    coeffs = coefficient_tape((p.a_x, p.b, p.a_t.inverse()), grid.xs)

    def rhs(t, y):
        (u,) = y
        a_x, b, inv_t = coeffs(t)
        return (contract(inv_t, -(contract(a_x, reference_d_x(u, grid)) + contract(b, u))),)

    return reference_evolve(rhs, (phi0.values.astype(complex).copy(),), grid, phi0.level)


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
    return [reference_solve_second_order(op, metric, grid, u0, v0, j0, source) for u0, v0, j0, source in starts]


def use_reference(monkeypatch):
    monkeypatch.setattr(cauchy, "solve_second_order", reference_solve_second_order)
    monkeypatch.setattr(greens, "_solve_second_order", reference_solves)
    # the normal derivative data of a Cauchy solve too
    monkeypatch.setattr(cauchy, "d_x", reference_d_x)


@pytest.mark.parametrize("metric_name", sorted(METRICS))
@pytest.mark.parametrize("preset", sorted(PRESETS))
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


def count_calls(monkeypatch, module, name):
    """Record the first argument of every call to module.name."""
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def count_rhs_calls(monkeypatch):
    """Record the coefficient values of every right-hand-side call."""
    calls = []
    march = cauchy._march

    def counting_march(rhs, *rest):
        def counted(*rhs_args):
            calls.append(rhs_args[0])
            return rhs(*rhs_args)

        return march(counted, *rest)

    monkeypatch.setattr(cauchy, "_march", counting_march)
    return calls


@pytest.mark.parametrize(
    "case", [pytest.param("cauchy", id="False"), pytest.param("driven", id="True"), "zero_data"]
)
def test_all_nonzero_fields_equal_the_unpruned_scheme(chart, mink, monkeypatch, case):
    # Q P = d_t^2 + 0.7 d_t d_x + 0.1 d_x^2 + 0.4 d_t + 0.11 d_x + 0.03
    p = FirstOrderOperator.build([[1.0]], [[0.5]], [[0.3]])
    q = FirstOrderOperator.build([[1.0]], [[0.2]], [[0.1]])
    op = compose(q, p)
    assert not any(f.is_zero for f in (op.c_tx, op.c_xx, op.d_t, op.d_x, op.e))
    grid = build_grid(chart, mink, 128)
    zeros = np.zeros((grid.nx, 1), dtype=complex)
    if case == "driven":
        section = make_test_section(grid, ["1+x"], X_WINDOW, T_WINDOW)
        args = (op, mink, grid, zeros, zeros, 0, section)
    elif case == "cauchy":
        phi0 = make_cauchy_data(grid, ["1"], 0.0)
        args = (op, mink, grid, phi0.values, 0.5 * phi0.values, phi0.level)
    else:
        args = (op, mink, grid, zeros, zeros, grid.nt // 2)
    rhs_calls = count_rhs_calls(monkeypatch)
    actual = solve_second_order(*args).values
    assert np.isfinite(actual).all()
    if case == "zero_data":
        assert not actual.any() and rhs_calls == []
    else:
        assert np.abs(actual).max() > 0 and rhs_calls
    assert np.array_equal(actual, reference_solve_second_order(*args).values)


def test_an_operator_with_no_lower_order_term_equals_the_unpruned_scheme(chart, mink):
    # d_t^2 u = 0: every field but C^tt folds to 0, so the right-hand side
    # returns the number 0.0 as the time derivative of v
    p = FirstOrderOperator.build([[1.0]], [[0.0]], [[0.0]])
    op = compose(p, p)
    assert all(f.is_zero for f in (op.c_tx, op.c_xx, op.d_t, op.d_x, op.e))
    grid = build_grid(chart, mink, 128)
    phi0 = make_cauchy_data(grid, ["1"], 0.0)
    args = (op, mink, grid, phi0.values, 0.5 * phi0.values, phi0.level)
    actual = solve_second_order(*args).values
    assert np.abs(actual).max() > 0
    assert np.array_equal(actual, reference_solve_second_order(*args).values)


def dirac_scenario(chart, mink):
    p, q = build_dirac_pair(DiracModel(mass=1.0), mink)
    grid = build_grid(chart, mink, 128)
    return p, q, grid, make_test_section(grid, ["1", "0.5"], X_WINDOW, T_WINDOW)


def test_minkowski_dirac_rhs_takes_no_first_derivative(chart, mink, monkeypatch):
    # on Minkowski, 2C^tx and D^x of the Dirac square fold to 0, so the
    # right-hand side needs d_xx u alone; the unpruned scheme takes two d_x
    calls = count_calls(monkeypatch, cauchy, "d_x")
    p, q, grid, section = dirac_scenario(chart, mink)
    greens_apply(p, q, mink, section, "retarded", grid)
    assert calls == []


def test_minkowski_dirac_rhs_makes_no_matrix_contraction(chart, mink, monkeypatch):
    # C^xx = -Id, E = m^2 Id and (C^tt)^-1 = Id on Minkowski: each is applied
    # as a sign or a number, where the unpruned scheme makes three contractions
    calls = count_calls(monkeypatch, bundle_ops, "contract")
    p, q, grid, section = dirac_scenario(chart, mink)
    u = greens.solve_driven(compose(p, q), mink, section, "retarded", grid)
    assert calls == [] and u.values.any()
    op = compose(p, q)
    assert (op.c_xx.scalar, op.e.scalar, op.c_tt.inverse().scalar) == (-1, 1, 1)


def test_curved_dirac_rhs_makes_no_matrix_contraction(chart, monkeypatch):
    # on the README metric every nonzero term of the Dirac square is s(t, x)
    # Id (C^xx, D^t, D^x, (C^tt)^-1), applied as one broadcast product
    metric = DiagonalMetric(*METRICS["readme"], chart)
    calls = count_calls(monkeypatch, bundle_ops, "contract")
    p, q = build_dirac_pair(DiracModel(mass=1.0), metric)
    grid = build_grid(chart, metric, 128)
    section = make_test_section(grid, ["1", "0.5"], X_WINDOW, T_WINDOW)
    u = greens.solve_driven(compose(p, q), metric, section, "retarded", grid)
    assert calls == [] and u.values.any()
    op = compose(p, q)
    fields = (op.c_xx, op.d_t, op.d_x, op.c_tt.inverse())
    assert all(f.diagonal is not None and not f.is_constant for f in fields)


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
    assert np.array_equal(product(field)(c, w), contract(c, w))
    assert np.array_equal(cauchy._subtractor(field)(load, c, w), load - contract(c, w))
    assert np.array_equal(cauchy._subtractor(field)(0.0, c, w), 0.0 - contract(c, w))


@pytest.mark.parametrize("c", [1, -1, 0.49, -2.5, 1j, 0.3 + 0.7j])
def test_constant_identity_fields_contract_as_the_matrix_product(c):
    field = MatrixField.from_constant(c * np.eye(2))
    rng = np.random.default_rng(5)
    w, load = (rng.normal(size=(128, 2)) + 1j * rng.normal(size=(128, 2)) for _ in range(2))
    assert field.scalar == c
    assert np.array_equal(product(field)(field.constant, w), w @ field.constant.T)
    assert np.array_equal(cauchy._subtractor(field)(load, field.constant, w), load - w @ field.constant.T)
    assert np.array_equal(cauchy._subtractor(field)(0.0, field.constant, w), 0.0 - w @ field.constant.T)


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
        return [bundle_ops.apply_operator(op, phi).values for op in ops] + [cauchy.normal_derivative_data(p, metric, phi0).values]

    actual = run()
    for mod in (bundle_ops, cauchy):
        monkeypatch.setattr(mod, "product", lambda field: contract)
    expected = run()
    assert all(np.isfinite(a).all() and np.abs(a).max() > 0 for a in actual)
    for a, e in zip(actual, expected):
        assert np.array_equal(a, e)


@pytest.mark.parametrize("direction", ["retarded", "advanced"])
def test_driven_sweep_starts_at_its_first_forced_stage(chart, mink, monkeypatch, direction):
    # a sweep from zero data marches from the first step with a stage at
    # which the source is nonzero; the levels before it stay 0
    calls = count_calls(monkeypatch, cauchy, "d_xx")
    p, q, grid, section = dirac_scenario(chart, mink)
    greens_apply(p, q, mink, section, direction, grid)
    lo, hi = section.t_support
    order = np.arange(grid.nt) if direction == "retarded" else np.arange(grid.nt)[::-1]
    dt = grid.dt if direction == "retarded" else -grid.dt
    stages = np.empty(2 * grid.nt - 1)
    stages[0::2] = grid.ts[order]
    stages[1::2] = grid.ts[order[:-1]] + dt / 2
    source = Tape(section.components, grid.xs).stack(stages[:, None])
    forced = int(np.argmax(source.any(axis=(1, 2))))
    assert lo < stages[forced] < hi
    first = max(0, (forced - 1) // 2)
    assert first > 0.2 * grid.nt
    assert len(calls) == 4 * (grid.nt - 1 - first)

    u = greens.solve_driven(compose(p, q), mink, section, direction, grid).values
    assert not u[order[:first + 1]].any()
    assert u[order[first + 1]].any()
    outside = grid.ts < lo if direction == "retarded" else grid.ts > hi
    assert not u[outside].any()


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
    assert np.array_equal(direct.values, reference_solve_first_order_direct(p, metric, phi0, grid).values)
    actual = solve_cauchy(p, q, metric, phi0, grid)[0]
    use_reference(monkeypatch)
    expected = solve_cauchy(p, q, metric, phi0, grid)[0]
    assert np.isfinite(actual.values).all() and np.abs(actual.values).max() > 0
    assert np.array_equal(actual.values, expected.values)


@pytest.mark.parametrize("t0", [0.0, 0.1])
def test_lockstep_on_a_circle_equals_the_unpruned_scheme(monkeypatch, t0):
    chart = Chart1p1(-0.3, 0.3, -1.0, 1.0, topology="circle")
    metric = DiagonalMetric(*METRICS["readme"], chart)
    p, q = build_dirac_pair(DiracModel(mass=1.0), metric)
    grid = build_grid(chart, metric, 128)
    phi0 = make_cauchy_data(grid, ["cos(pi*x)", "0.5"], t0, halfwidth=2.0)
    direct = solve_first_order_direct(p, metric, phi0, grid)
    assert np.array_equal(direct.values, reference_solve_first_order_direct(p, metric, phi0, grid).values)
    actual = solve_cauchy(p, q, metric, phi0, grid)[0]
    use_reference(monkeypatch)
    expected = solve_cauchy(p, q, metric, phi0, grid)[0]
    assert np.isfinite(actual.values).all() and actual.values[0].any() and actual.values[-1].any()
    assert np.array_equal(actual.values, expected.values)


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


@pytest.mark.parametrize("metric_name", ["readme", "varying"])
@pytest.mark.parametrize("direction", ["retarded", "advanced"])
def test_adjoint_driven_solves_equal_the_unpruned_scheme(chart, metric_name, direction):
    # the driven solves of P* Q* that adjoint-check makes: the longest
    # coefficient tape of a curved round
    metric, p, q, grid, components = scenario(chart, "dirac_massive", metric_name)
    op = compose(formal_adjoint(p, metric), formal_adjoint(q, metric))
    section = make_test_section(grid, components, X_WINDOW, T_WINDOW)
    actual = greens.solve_driven(op, metric, section, direction, grid)
    zeros = np.zeros((grid.nx, 2), dtype=complex)
    j0 = 0 if direction == "retarded" else grid.nt - 1
    expected = reference_solve_second_order(op, metric, grid, zeros, zeros, j0, source=section)
    assert np.isfinite(actual.values).all() and np.abs(actual.values).max() > 0
    assert np.array_equal(actual.values, expected.values)


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
    batched = greens._solve_driven(op, metric, jobs, grid)
    assert marches == [4]
    firsts = []
    for (source, direction), u in zip(jobs, batched):
        alone = greens.solve_driven(op, metric, source, direction, grid)
        assert np.isfinite(u.values).all() and np.abs(u.values).max() > 0
        assert np.array_equal(u.values, alone.values)
        order = np.arange(grid.nt) if direction == "retarded" else np.arange(grid.nt)[::-1]
        firsts.append(int(np.argmax(u.values[order].any(axis=(1, 2)))))
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
    assert np.isfinite(greens.solve_driven(op, mink, late, "retarded", grid).values).all()
    alone = {}
    for job in ((early, "retarded"), (late, "advanced")):
        with pytest.raises(cauchy.SolverBlowupError) as exc:
            greens.solve_driven(op, mink, *job, grid)
        alone[job[1]] = (exc.value.level, exc.value.t)
    assert alone["retarded"] != alone["advanced"]
    for jobs in (
        [(late, "retarded"), (early, "retarded")],
        [(late, "retarded"), (late, "advanced"), (early, "retarded")],
        [(early, "retarded"), (late, "advanced")],
    ):
        with pytest.raises(cauchy.SolverBlowupError) as exc:
            greens._solve_driven(op, mink, jobs, grid)
        blown = next(direction for source, direction in jobs if not (source is late and direction == "retarded"))
        assert (exc.value.level, exc.value.t) == alone[blown]
