"""Symbolic coefficient fields: the exact compose and formal_adjoint against
a finite-difference reference, and the evaluation tape."""

import numpy as np
import pytest

from prehyp.bundle_ops import FirstOrderOperator, MatrixField, apply_operator, coefficient_tape, compose, formal_adjoint
from prehyp.config import PRESETS, resolve_preset
from prehyp.expr import ExprEvalError, Tape, diff, evaluate, parse, simplify
from prehyp.geometry import Chart1p1, DiagonalMetric
from prehyp.grids import GridSection, build_grid

CHART = Chart1p1(-0.3, 0.3, -1.0, 1.0)
METRICS = [("1", "1"), ("1+0.1*sin(t)", "1+0.3*cos(2*x)"), ("1+0.3*x", "1+0.3*t")]
H = 1e-6  # centered-difference step of the reference
XS = np.linspace(-0.9, 0.9, 7)
TS = (-0.25, 0.0, 0.2)


def fd_dt(f, t, xs):
    return (f.eval(t + H, xs) - f.eval(t - H, xs)) / (2 * H)


def fd_dx(f, t, xs):
    return (f.eval(t, xs + H) - f.eval(t, xs - H)) / (2 * H)


def reference_compose(p, q, t, xs):
    """The product rule with finite-difference coefficient derivatives."""
    pat, pax, pb = (f.eval(t, xs) for f in (p.a_t, p.a_x, p.b))
    qat, qax, qb = (f.eval(t, xs) for f in (q.a_t, q.a_x, q.b))
    return {
        "c_tt": pat @ qat,
        "c_tx": 0.5 * (pat @ qax + pax @ qat),
        "c_xx": pax @ qax,
        "d_t": pat @ fd_dt(q.a_t, t, xs) + pax @ fd_dx(q.a_t, t, xs) + pat @ qb + pb @ qat,
        "d_x": pat @ fd_dt(q.a_x, t, xs) + pax @ fd_dx(q.a_x, t, xs) + pax @ qb + pb @ qax,
        "e": pat @ fd_dt(q.b, t, xs) + pax @ fd_dx(q.b, t, xs) + pb @ qb,
    }


def reference_adjoint_b(p, metric, t, xs):
    """B^T - (1/rho) d_mu(rho A^mu,T) with finite-difference derivatives."""
    def rho(tt, x):
        return np.broadcast_to(metric.volume_density(tt, x), x.shape)[:, None, None]

    def rho_a(f, tt, x):
        return rho(tt, x) * np.swapaxes(f.eval(tt, x), 1, 2)

    div = (rho_a(p.a_t, t + H, xs) - rho_a(p.a_t, t - H, xs)) / (2 * H)
    div += (rho_a(p.a_x, t, xs + H) - rho_a(p.a_x, t, xs - H)) / (2 * H)
    return np.swapaxes(p.b.eval(t, xs), 1, 2) - div / rho(t, xs)


@pytest.mark.parametrize("alpha,beta", METRICS)
@pytest.mark.parametrize("preset", PRESETS)
def test_symbolic_compose_and_adjoint_match_finite_differences(preset, alpha, beta):
    metric = DiagonalMetric(alpha, beta, CHART)
    p, q = resolve_preset(preset, 1.0, metric)
    for a, b in ((p, q), (q, p)):
        l = compose(a, b)
        for t in TS:
            ref = reference_compose(a, b, t, XS)
            for name, want in ref.items():
                assert np.max(np.abs(getattr(l, name).eval(t, XS) - want)) < 1e-9, name
    for op in (p, q):
        star = formal_adjoint(op, metric)
        for t in TS:
            assert np.max(np.abs(star.b.eval(t, XS) - reference_adjoint_b(op, metric, t, XS))) < 1e-9
            assert np.array_equal(star.a_t.eval(t, XS), -np.swapaxes(op.a_t.eval(t, XS), 1, 2))


def test_tape_shares_subtrees_and_hoists_x_only_nodes():
    asts = [parse("sin(t)*cos(x)"), parse("cos(x)+sin(t)"), parse("cos(x)^2")]
    xs = np.linspace(-1.0, 1.0, 5)
    tape = Tape(asts, xs)
    # t, x, sin(t), cos(x), the product, the sum, 2 and the power: 8 slots
    assert len(tape._init) == 8
    assert len(tape._dynamic) == 3  # sin(t), the product and the sum
    for t in (0.1, -0.2):
        got = tape(t)
        for ast, val in zip(asts, got):
            np.testing.assert_allclose(val, evaluate(ast, t, xs), rtol=0, atol=0)


def test_tape_on_the_mesh_matches_level_by_level():
    f = MatrixField.from_exprs([["sin(t)*x", "1"], ["exp(t+x)", "0"]])
    ts = np.linspace(-0.3, 0.3, 4)
    xs = np.linspace(-1.0, 1.0, 6)
    mesh = coefficient_tape((f,), xs)(ts[:, None])[0]
    for n, t in enumerate(ts):
        level = f.eval(float(t), xs)
        for i, j, val in mesh:
            np.testing.assert_array_equal(np.broadcast_to(val, (4, 6))[n], level[:, i, j])


def test_stage_times_are_cached():
    tape = Tape([parse("sin(t)")], np.zeros(3))
    first = tape(0.1)
    assert tape(0.1) is first
    tape(0.2)
    assert tape(0.1) is first
    tape(0.3)
    assert tape(0.1) is not first  # only the last two times are kept


def test_non_finite_coefficients_still_raise():
    grid = build_grid(CHART, DiagonalMetric("1", "1", CHART), 33)
    p = FirstOrderOperator.build([["1"]], [["1/x"]], [["0"]])
    phi = GridSection(grid, np.ones((grid.nt, grid.nx, 1), dtype=complex))
    with pytest.raises(ExprEvalError) as exc:
        apply_operator(p, phi)
    assert exc.value.x == 0.0
    with pytest.raises(ExprEvalError):
        Tape([parse("sqrt(t)")], np.zeros(2))(-1.0)


def test_variable_exponent_differentiates_through_log():
    d = diff(parse("x^t"), "t")
    assert "log" in repr(d)
    t, x, h = 0.7, 1.3, 1e-6
    tape = Tape([d], np.array([x]))
    want = (x ** (t + h) - x ** (t - h)) / (2 * h)
    assert tape(t)[0][0] == pytest.approx(want, rel=1e-8)
    assert diff(parse("x^3"), "x") == simplify(parse("3*x^2"))


def test_folding_prunes_zeros_and_units():
    assert simplify(parse("0*sin(x)+1*t-0")) == parse("t")
    assert simplify(parse("x*t-t*x")) == parse("0")
    assert simplify(parse("2*(3*x)")) == simplify(parse("6*x"))
    # a division by zero is not folded away: evaluating it still fails
    with pytest.raises(ExprEvalError):
        Tape([simplify(parse("1/(1-1)"))], np.zeros(1))(0.0)


@pytest.mark.parametrize("rows", [
    [["2+x"]],
    [["1+x", "t"], ["x*t", "2+sin(t)"]],
    [["0", "1/(1+0.1*sin(t))"], ["1/(1+0.1*sin(t))", "0"]],
    [["1+x", "t", "0"], ["x*t", "2+sin(t)", "x"], ["1", "t", "3"]],
])
def test_symbolic_inverse(rows):
    f = MatrixField.from_exprs(rows)
    inv = f.inverse()
    for t, x in ((0.1, 0.3), (-0.2, -0.7)):
        np.testing.assert_allclose(inv.at(t, x) @ f.at(t, x), np.eye(f.k), atol=1e-14)
    assert MatrixField.from_exprs([["1", "2"], ["0", "4"]]).inverse().is_constant
