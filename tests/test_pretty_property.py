"""Property test: parse reads back what pretty writes.  pretty writes a
complex constant as its Python repr in parentheses, (2j), (-2j) or
((-0-2.5j)); the parser reads a number literal with a j suffix as
imaginary and such a parenthesized repr as the constant itself, the sign
of a zero real part included, which fold's operand order (by pretty)
depends on.  So a folded AST with complex constants survives the round
trip."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from prehyp.expr import FUNCTIONS, Bin, Call, Neg, Num, Var, fold, parse, pretty, simplify  # noqa: E402

PARTS = st.floats(allow_nan=False, allow_infinity=False)
CONSTANTS = st.one_of(
    st.builds(complex, PARTS, PARTS),
    st.builds(complex, st.sampled_from([0.0, -0.0]), PARTS),
    PARTS,
    st.just(math.pi),
)
LEAVES = st.one_of(CONSTANTS.map(Num), st.sampled_from([Var("t"), Var("x")]))


def _extend(inner):
    return st.one_of(
        st.builds(Bin, st.sampled_from(["+", "-", "*", "/", "^"]), inner, inner),
        st.builds(Neg, inner),
        st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), inner),
    )


# folded ASTs: simplify leaves them as they are, a product of constants
# that is not finite, as 1e200 * 1e200, included
ASTS = st.recursive(LEAVES, _extend, max_leaves=8).map(simplify)


def test_parse_reads_the_imaginary_literals_pretty_writes():
    a = fold(Bin("*", Num(2j), Var("x")))
    assert pretty(a) == "((2j)*x)"
    assert parse(pretty(a)) == Bin("*", Num(2j), Var("x"))
    assert parse("1.5e-3j") == Num(1.5e-3j) and parse(".5j") == Num(0.5j)
    # -(2j) folds to (-0-2j), whose repr differs from that of 0 - 2j
    for value in (complex(0.0, -2.0), complex(-0.0, -2.0), complex(-0.0, 2.0), complex(1e20, -1e-20)):
        back = simplify(parse(pretty(Num(value)))).value
        assert back == value and math.copysign(1.0, back.real) == math.copysign(1.0, value.real)
    assert parse("sin (2j)") == parse("sin((2j))") == Call("sin", Num(2j))


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(a=ASTS)
def test_simplify_parse_pretty_is_the_identity_on_folded_asts(a):
    assert simplify(parse(pretty(a))) == a, pretty(a)
