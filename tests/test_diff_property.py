"""Property test: expr.diff agrees with centered differences on random
expressions built from the whole grammar, alone and times smooth windows."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from prehyp.expr import Bin, diff, evaluate, fold, parse  # noqa: E402
from prehyp.grids import window_expr  # noqa: E402

NUMBERS = st.sampled_from(["0.5", "2", "1.5", "3", "pi"])
LEAVES = st.one_of(NUMBERS, st.just("t"), st.just("x"))


def _extend(inner):
    # every operation stays smooth and finite on [-1, 1]^2: divisions and
    # roots are of positive quantities, exponents have positive bases
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*"]), inner).map(lambda a: f"({a[0]}){a[1]}({a[2]})"),
        st.tuples(inner, inner).map(lambda a: f"({a[0]})/(2+sin({a[1]}))"),
        st.tuples(st.sampled_from(["sin", "cos", "tanh"]), inner).map(lambda a: f"{a[0]}({a[1]})"),
        inner.map(lambda a: f"exp(0.3*sin({a}))"),
        inner.map(lambda a: f"sqrt(1+({a})^2)"),
        st.tuples(inner, st.sampled_from(["2", "3", "0.5", "-1"])).map(lambda a: f"(2+cos({a[0]}))^{a[1]}"),
        st.tuples(inner, inner).map(lambda a: f"(2+cos({a[0]}))^(sin({a[1]}))"),
        inner.map(lambda a: f"-({a})"),
    )


SOURCES = st.recursive(LEAVES, _extend, max_leaves=8)
POINTS = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
# plateaus |t| <= 0.3 and 0 <= x <= 0.4, supports |t| <= 0.7 and
# -0.5 <= x <= 0.9: sample points fall inside, outside and in between
WINDOWS = fold(Bin("*", window_expr("t", 0.0, 0.3, 2.5), window_expr("x", 0.2, 0.2, 2.0)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(src=SOURCES, t=POINTS, x=POINTS, var=st.sampled_from(["t", "x"]))
def test_diff_matches_centered_differences(src, t, x, var):
    h = 1e-5
    for ast in (parse(src), fold(Bin("*", parse(src), WINDOWS))):
        if var == "t":
            fd = (evaluate(ast, t + h, x) - evaluate(ast, t - h, x)) / (2 * h)
        else:
            fd = (evaluate(ast, t, x + h) - evaluate(ast, t, x - h)) / (2 * h)
        exact = evaluate(diff(ast, var), t, x)
        scale = 1.0 + abs(evaluate(ast, t, x)) + abs(fd)
        assert abs(exact - fd) <= 1e-6 * scale, (src, exact, fd)
