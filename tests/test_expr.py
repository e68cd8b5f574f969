import math

import numpy as np
import pytest

from prehyp import expr
from prehyp.expr import (
    Bin,
    Call,
    ExprEvalError,
    ExprSyntaxError,
    Neg,
    Num,
    Var,
    evaluate,
    parse,
    pretty,
)


def ev(src, t=0.0, x=0.0):
    return evaluate(parse(src), t, x)


class TestParsing:
    def test_precedence(self):
        assert ev("1+2*3") == 7.0

    def test_power_right_associative(self):
        assert ev("2^3^2") == 512.0

    def test_parentheses(self):
        assert ev("(1+2)*3") == 9.0

    def test_unary_minus(self):
        assert ev("-3+5") == 2.0
        assert ev("2*-3") == -6.0

    def test_power_of_negative_exponent(self):
        assert ev("2^-2") == 0.25

    def test_whitespace_ignored(self):
        assert ev("  1 +\t2 * 3 ") == 7.0

    def test_pi(self):
        assert ev("2*pi") == pytest.approx(2 * math.pi)

    def test_scientific_literals(self):
        assert ev("1.5e2") == 150.0
        assert ev(".5") == 0.5

    def test_unclosed_paren_reports_offset(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("2*(t")
        assert exc.value.offset == 4
        assert "expected ')'" in str(exc.value)

    def test_unknown_identifier(self):
        # log, step and step_slope are internal nodes, not part of the grammar
        for bad in ("a", "foo", "sinh", "log(x)", "step(x)", "step_slope(x)"):
            with pytest.raises(ExprSyntaxError):
                parse(bad)

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse("1+2 3")

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError):
            parse("1+%")

    def test_as_ast_coerces_source_and_numbers(self):
        ast = Bin("*", Num(2.0), Var("x"))
        assert expr.as_ast(ast) is ast
        assert expr.as_ast("2*x") == ast
        for real in (2, 2.0, np.float64(2.0), np.int64(2)):
            num = expr.as_ast(real)
            assert num == Num(2.0) and type(num.value) is float
        for cplx in (2j, np.complex128(1 + 2j)):
            assert expr.as_ast(cplx) == Num(complex(cplx)) and type(expr.as_ast(cplx).value) is complex


class TestEvaluation:
    def test_sin(self):
        assert ev("sin(x)", 0.0, math.pi / 2) == pytest.approx(1.0)

    def test_exp(self):
        assert ev("exp(t)*2", 0.0, 5.0) == pytest.approx(2.0)

    def test_division_by_zero(self):
        with pytest.raises(ExprEvalError):
            ev("1/x", 0.0, 0.0)

    def test_sqrt_of_negative(self):
        with pytest.raises(ExprEvalError):
            ev("sqrt(x)", 0.0, -1.0)

    def test_eval_error_carries_point(self):
        with pytest.raises(ExprEvalError) as exc:
            ev("1/x", 0.5, 0.0)
        assert exc.value.t == 0.5
        assert exc.value.x == 0.0

    def test_array_arguments(self):
        xs = np.linspace(-1, 1, 11)
        out = evaluate(parse("x^2+t"), 1.0, xs)
        assert np.allclose(out, xs**2 + 1.0)

    def test_array_error_locates_bad_node(self):
        xs = np.array([1.0, 0.0, 2.0])
        with pytest.raises(ExprEvalError) as exc:
            evaluate(parse("1/x"), 0.0, xs)
        assert exc.value.x == 0.0

    def test_step_slope_is_finite_and_zero_where_the_step_is_flat(self):
        # a naive s(1-s)(1/(1-u)^2 + 1/u^2) is 0 * inf = NaN at u = 1e-300
        u = np.array([0.0, 1.0, 1e-300, 1 - 1e-16, -1.0, 2.0])
        assert set(expr.smooth_step(u)) == {0.0, 1.0}
        slope = evaluate(expr.diff(Call("step", Var("x")), "x"), 0.0, u)
        assert np.all(np.isfinite(slope))
        assert np.all(slope == 0.0)


class TestAstPredicates:
    def test_is_constant(self):
        assert expr.is_constant(parse("1+2*pi"))
        assert not expr.is_constant(parse("1+x"))
        assert not expr.is_constant(parse("sin(t)"))

    def test_uses_var(self):
        assert expr.uses_var(parse("sin(t)+x"), "t")
        assert not expr.uses_var(parse("x^2"), "t")
        assert expr.uses_var(parse("-(x)"), "x")


class TestRoundTrip:
    CASES = ["1+2*3", "2^3^2", "-x", "sin(x)*cos(t)", "(1+t)/(2-x)", "sqrt(x^2+1)"]

    @pytest.mark.parametrize("src", CASES)
    def test_pretty_parse_pretty_idempotent(self, src):
        once = pretty(parse(src))
        twice = pretty(parse(once))
        assert once == twice

    @pytest.mark.parametrize("src", CASES)
    def test_pretty_preserves_value(self, src):
        a, b = parse(src), parse(pretty(parse(src)))
        for t in (0.1, -0.4):
            for x in (0.3, -0.9):
                assert evaluate(a, t, x) == pytest.approx(evaluate(b, t, x))


    @pytest.mark.parametrize("src", CASES)
    def test_kept_string_is_not_part_of_the_node(self, src):
        kept, fresh = parse(src), parse(src)
        text = pretty(kept)
        assert pretty(kept) is text
        assert kept == fresh and hash(kept) == hash(fresh) and repr(kept) == repr(fresh)
        assert "_pretty" not in repr(kept) and pretty(fresh) == text


def random_ast(rng, depth=0):
    """A random small AST restricted to everywhere-finite operations."""
    kind = rng.integers(0, 6 if depth < 4 else 2)
    if kind == 0:
        return Num(float(np.round(rng.uniform(-2, 2), 3)))
    if kind == 1:
        return Var("t" if rng.integers(0, 2) == 0 else "x")
    if kind == 2:
        return Neg(random_ast(rng, depth + 1))
    if kind == 3:
        op = ["+", "-", "*"][rng.integers(0, 3)]
        return Bin(op, random_ast(rng, depth + 1), random_ast(rng, depth + 1))
    return Call(["sin", "cos", "tanh"][rng.integers(0, 3)], random_ast(rng, depth + 1))


def oracle(ast, t, x):
    if isinstance(ast, Num):
        return ast.value
    if isinstance(ast, Var):
        return t if ast.name == "t" else x
    if isinstance(ast, Neg):
        return -oracle(ast.arg, t, x)
    if isinstance(ast, Call):
        return getattr(math, ast.func)(oracle(ast.arg, t, x))
    l, r = oracle(ast.left, t, x), oracle(ast.right, t, x)
    return {"+": l + r, "-": l - r, "*": l * r}[ast.op]


def test_random_asts_match_direct_interpretation():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        ast = random_ast(rng)
        t = float(rng.uniform(-1, 1))
        x = float(rng.uniform(-1, 1))
        assert evaluate(ast, t, x) == pytest.approx(oracle(ast, t, x), abs=1e-12)


def test_compiled_points_equal_evaluate_on_the_array():
    # three points, the middle one reusing the first: values bit for bit,
    # and a non-finite node reported where evaluate reports it
    rng = np.random.default_rng(2)
    for _ in range(300):
        asts = [random_ast(rng), random_ast(rng), Bin("/", random_ast(rng), random_ast(rng))]
        t, x0, x2 = rng.uniform(-1, 1, 3)
        xs = np.array([x0, x0, x2])
        points = expr.compile_points(asts, 3)
        try:
            with np.errstate(all="ignore"):
                got = points(float(t), *map(float, xs))
        except ExprEvalError as e:
            with pytest.raises(ExprEvalError) as want:
                for a in asts:
                    evaluate(a, float(t), xs)
            assert (str(e), e.t, e.x) == (str(want.value), want.value.t, want.value.x)
            continue
        for a, values in zip(asts, got):
            assert np.array_equal(np.broadcast_to(evaluate(a, float(t), xs), 3), values)


def test_random_asts_survive_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(200):
        ast = random_ast(rng)
        assert pretty(parse(pretty(ast))) == pretty(ast)
