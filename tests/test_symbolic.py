"""Symbolic coefficient fields: the exact compose and formal_adjoint against
a finite-difference reference, and the evaluation tape."""

import numpy as np
import pytest

from prehyp.bundle_ops import FirstOrderOperator, MatrixField, apply_operator, coefficient_tape, compose, formal_adjoint
from prehyp.config import PRESETS, resolve_preset
from prehyp.expr import ONE, Bin, ExprEvalError, Tape, diff, evaluate, fold, parse, simplify
from prehyp.geometry import Chart1p1, DiagonalMetric
from prehyp.grids import GridSection, build_grid
from prehyp.qft_dirac import DiracModel, build_dirac_pair

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


def reference_formal_adjoint(p, metric):
    """-A^T and B^T - (1/rho) d_mu(rho A^mu,T), with rho A^mu,T as
    A^mu,T.scale(rho): no factor of rho cancelled."""
    rho = simplify(Bin("*", metric.alpha_ast, metric.beta_ast))
    at_t, at_x = p.a_t.transpose(), p.a_x.transpose()
    div = (at_t.scale(rho).d_dt() + at_x.scale(rho).d_dx()).scale(fold(Bin("/", ONE, rho)))
    return FirstOrderOperator(p.k, -at_t, -at_x, p.b.transpose() - div)


@pytest.mark.parametrize("alpha,beta", METRICS)
@pytest.mark.parametrize("preset", PRESETS)
def test_symbolic_compose_and_adjoint_match_finite_differences(preset, alpha, beta):
    metric = DiagonalMetric(alpha, beta, CHART)
    p, q = resolve_preset(preset, 1.0, metric)
    stars = tuple(formal_adjoint(op, metric) for op in (p, q))
    for a, b in ((p, q), (q, p), stars):
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


@pytest.mark.parametrize("alpha,beta,fields", [
    ("exp(t)", "1", ([["1"]], [["0"]], [["0"]])),
    (*METRICS[1], ([["1+x"]], [["sin(t)"]], [["x"]])),
    (*METRICS[2], ([["1+x", "t"], ["0", "2"]], [["0", "x*t"], ["1/(2+x)", "0"]], [["1", "0"], ["t", "0"]])),
])
def test_adjoint_of_other_principal_entries_is_the_uncancelled_one(alpha, beta, fields):
    # entries that are not c/alpha or c/beta keep rho e, so every AST of
    # the adjoint is the uncancelled one
    metric = DiagonalMetric(alpha, beta, CHART)
    p = FirstOrderOperator.build(*fields)
    star, ref = formal_adjoint(p, metric), reference_formal_adjoint(p, metric)
    for name in ("a_t", "a_x", "b"):
        assert getattr(star, name).entries == getattr(ref, name).entries, name


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


BLOCK_EXPRS = (
    "sin(t)*cos(2*x)", "exp(0.3*t)/(1+0.3*x^2)", "tanh(t-x)", "sqrt(2+t*x)",
    "(1+0.1*sin(t))^(1+x^2)", "1/(1+0.1*cos(t))", "t", "x", "3",
)


def stage_block(members):
    """Stage times as the lockstep march holds them, one row per member,
    and the same times as a stage-major (S, members, 1) block."""
    times = np.stack([np.linspace(-0.3, 0.3, 33), np.linspace(-0.2, 0.25, 33)][:members])
    return times, np.ascontiguousarray(times.T)[..., None]


@pytest.mark.parametrize("members", [1, 2])
def test_tape_block_equals_stage_by_stage(members):
    metric = DiagonalMetric("1+0.3*x", "1+0.3*t", CHART)
    p, q = build_dirac_pair(DiracModel(mass=1.0), metric)
    op = compose(formal_adjoint(p, metric), formal_adjoint(q, metric))
    fields = (op.c_tx, op.c_xx, op.d_t, op.d_x, op.e, op.c_tt.inverse())
    asts = [parse(e) for e in BLOCK_EXPRS] + [e for f in fields for _, _, e in f.nonzero()]
    xs = np.linspace(-1.0, 1.0, 7)
    times, block = stage_block(members)
    stages = Tape(asts, xs).stages(block)
    assert len(stages) == times.shape[1]
    for c, got in enumerate(stages):
        want = Tape(asts, xs)(times[:, c:c + 1])
        assert len(got) == len(want) == len(asts)
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w)
            assert np.array_equal(g, w)
            # a value of t alone comes complex, cast once for the block
            assert np.iscomplexobj(g) == (np.shape(w) == (members, 1) or np.iscomplexobj(w))


@pytest.mark.parametrize("members", [1, 2])
def test_tape_block_raises_at_the_first_bad_stage(members):
    # sqrt(0.85-t) comes first on the tape but fails at a later stage than
    # sqrt(0.5-t); stages reports the first failure in stage order
    asts = [parse("sqrt(0.85-t)*x"), parse("sqrt(0.5-t)+x")]
    xs = np.linspace(-1.0, 1.0, 5)
    times, block = stage_block(members)
    times, block = times + 0.6, block + 0.6
    with pytest.raises(ExprEvalError) as exc:
        Tape(asts, xs).stages(block)
    tape = Tape(asts, xs)
    with pytest.raises(ExprEvalError) as first:
        for c in range(times.shape[1]):
            tape(times[:, c:c + 1])
    assert 0.5 < first.value.t < 0.85
    assert (str(exc.value), exc.value.t, exc.value.x) == (str(first.value), first.value.t, first.value.x)


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
