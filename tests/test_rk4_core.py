"""The pruned RK4 core against the unpruned scheme it replaced.

The solvers leave out coefficient fields that fold to 0 and the stencils
only they need, apply constant c Id fields as numbers, sample a driven
solve's source once per sweep inside its time support, start a sweep
from zero data at its first forced stage and march the two halves of a
solve in lockstep as one stacked state.  The reference below keeps the
full scheme: all five matrix contractions of the second-order right-hand
side, both terms of the direct one, the grids stencils at every stage, the
source sampled at every stage time, every level marched, one half after
the other, and the states collected per level.  Solutions must be equal under np.array_equal, since
a - 0 = a, c Id w = c w, zero data under zero forcing stay 0 and the
remaining operations run in the same order (zeros may differ in sign).
"""

import numpy as np
import pytest

from prehyp import cauchy, greens
from prehyp.bundle_ops import FirstOrderOperator, MatrixField, coefficient_tape, compose, contract
from prehyp.cauchy import solve_cauchy, solve_first_order_direct, solve_second_order
from prehyp.config import resolve_preset
from prehyp.expr import Tape
from prehyp.geometry import Chart1p1, DiagonalMetric
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


def use_reference(monkeypatch):
    for mod in (cauchy, greens):
        monkeypatch.setattr(mod, "solve_second_order", reference_solve_second_order)


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
    """Record the stage times of every right-hand-side call."""
    calls = []
    evolve = cauchy._evolve

    def counting_evolve(rhs, *rest):
        def counted(*rhs_args):
            calls.append(rhs_args[0])
            return rhs(*rhs_args)

        return evolve(counted, *rest)

    monkeypatch.setattr(cauchy, "_evolve", counting_evolve)
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
    calls = count_calls(monkeypatch, cauchy, "contract")
    p, q, grid, section = dirac_scenario(chart, mink)
    greens_apply(p, q, mink, section, "retarded", grid)
    assert calls == []
    op = compose(p, q)
    assert (op.c_xx.scalar, op.e.scalar, op.c_tt.inverse().scalar) == (-1, 1, 1)


def test_curved_dirac_rhs_makes_no_matrix_contraction(chart, monkeypatch):
    # on the README metric every nonzero term of the Dirac square is s(t, x)
    # Id (C^xx, D^t, D^x, (C^tt)^-1), applied as one broadcast product
    metric = DiagonalMetric(*METRICS["readme"], chart)
    calls = count_calls(monkeypatch, cauchy, "contract")
    p, q = build_dirac_pair(DiracModel(mass=1.0), metric)
    grid = build_grid(chart, metric, 128)
    section = make_test_section(grid, ["1", "0.5"], X_WINDOW, T_WINDOW)
    greens_apply(p, q, metric, section, "retarded", grid)
    assert calls == []
    op = compose(p, q)
    fields = (op.c_xx, op.d_t, op.d_x, op.c_tt.inverse())
    assert all(f.diagonal is not None and not f.is_constant for f in fields)


@pytest.mark.parametrize("s, c", [("1+0.3*cos(2*x)", 1), ("1+0.1*sin(t)", -2.5), ("(1+x)*(0.2+t)", 0.3 - 0.7j)])
def test_shared_diagonal_fields_contract_as_the_matrix_product(s, c):
    # s * w equals contract's 0 + s * w up to the sign of zeros
    field = MatrixField.from_exprs([[s, 0], [0, s]]).scale(c)
    assert field.diagonal is not None and field.scalar is None
    xs = np.linspace(-1.0, 1.0, 128)
    c = coefficient_tape([field], xs)(0.25)[0]
    rng = np.random.default_rng(5)
    w, load = (rng.normal(size=(128, 2)) + 1j * rng.normal(size=(128, 2)) for _ in range(2))
    assert np.array_equal(cauchy._scaled(field)(c, w), contract(c, w))
    assert np.array_equal(cauchy._subtractor(field)(load, c, w), load - contract(c, w))


@pytest.mark.parametrize("c", [1, -1, 0.49, -2.5, 1j, 0.3 + 0.7j])
def test_constant_identity_fields_contract_as_the_matrix_product(c):
    field = MatrixField.from_constant(c * np.eye(2))
    rng = np.random.default_rng(5)
    w, load = (rng.normal(size=(128, 2)) + 1j * rng.normal(size=(128, 2)) for _ in range(2))
    assert field.scalar == c
    assert np.array_equal(cauchy._scaled(field)(field.constant, w), w @ field.constant.T)
    assert np.array_equal(cauchy._subtractor(field)(load, field.constant, w), load - w @ field.constant.T)


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
def test_a_cauchy_solve_makes_four_rhs_calls_per_step_of_its_longer_half(chart, mink, monkeypatch, t0):
    # the halves step together, stacked, until the shorter one is done; the
    # unstacked scheme makes 4 (nt - 1) calls
    calls = count_rhs_calls(monkeypatch)
    p, q = build_dirac_pair(DiracModel(mass=1.0), mink)
    grid = build_grid(chart, mink, 128)
    phi0 = make_cauchy_data(grid, ["1", "0.5"], t0)
    solve_cauchy(p, q, mink, phi0, grid)
    j0, longest = phi0.level, max(phi0.level, grid.nt - 1 - phi0.level)
    assert len(calls) == 4 * longest < 4 * (grid.nt - 1)
    shorter = min(j0, grid.nt - 1 - j0)
    assert [np.shape(t) for t in calls] == [(2, 1)] * 4 * shorter + [(1, 1)] * 4 * (longest - shorter)


def test_curved_solve_runs_the_coefficient_tape_twice_per_step(chart, monkeypatch):
    # RK4 asks for each stacked stage-time pair twice; the tape's cache
    # answers the second request and the next step's first stage
    runs = []
    real = Tape._run

    def counting(self, code, vals, t):
        if code is self._dynamic:
            runs.append(np.shape(t))
        return real(self, code, vals, t)

    metric = DiagonalMetric(*METRICS["readme"], chart)
    p, q = build_dirac_pair(DiracModel(mass=1.0), metric)
    grid = build_grid(chart, metric, 256)
    phi0 = make_cauchy_data(grid, ["1", "0.5"], 0.05)
    j0 = phi0.level
    longest = max(j0, grid.nt - 1 - j0)
    monkeypatch.setattr(Tape, "_run", counting)
    dtphi0 = 0.5 * phi0.values
    solve_second_order(compose(q, p), metric, grid, phi0.values, dtphi0, j0)
    # one run per distinct stage time, and one for the first stage of each
    # stack: 2 longest + 2 <= 2.02 longest on this grid
    assert len(runs) == 2 * longest + 2 <= 2.02 * longest
