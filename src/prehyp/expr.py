"""Parser and evaluator for real coefficient expressions in the variables t, x.

Grammar (highest precedence first):

    power   :=  atom ('^' unary)?          # right associative
    unary   :=  '-' unary | power
    term    :=  unary (('*' | '/') unary)*
    sum     :=  term (('+' | '-') term)*
    atom    :=  number | 't' | 'x' | 'pi' | func '(' sum ')' | '(' sum ')'

Recognized functions: sin, cos, exp, tanh, sqrt.  Numbers are decimal
literals with optional exponent.  All arithmetic is 64-bit floating point;
evaluation accepts scalars or numpy arrays for t and x.

fold/simplify fold constants (possibly complex) and prune zeros, diff takes
exact derivatives (with an internal log node for u^v), and Tape compiles
ASTs for repeated evaluation on one row of nodes.  parse rejects the
internal log, step and step_slope nodes; the last two build windows.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
import re
from dataclasses import dataclass, replace
from functools import reduce
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "tanh": np.tanh,
    "sqrt": np.sqrt,
}

KNOWN_IDENTIFIERS = {"t", "x", "pi"} | set(FUNCTIONS)


def smooth_step(u) -> np.ndarray:
    """C-infinity step: exactly 0 for u <= 0 and 1 for u >= 1, realized as a
    tanh mollifier with rational argument."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    out[u >= 1.0] = 1.0
    m = (u > 0.0) & (u < 1.0)
    um = u[m]
    out[m] = 0.5 * (1.0 + np.tanh(0.5 * (1.0 / (1.0 - um) - 1.0 / um)))
    return out


def smooth_step_slope(u) -> np.ndarray:
    """The exact derivative of smooth_step, s(u) s(1-u) (1/u^2 + 1/(1-u)^2)
    as 1 - s(u) = s(1-u); exactly 0 wherever the step is 0 or 1."""
    u = np.asarray(u, dtype=float)
    out, s = np.zeros_like(u), smooth_step(u)
    m = (s > 0.0) & (s < 1.0)
    out[m] = s[m] * smooth_step(1.0 - u[m]) * (1.0 / u[m] ** 2 + 1.0 / (1.0 - u[m]) ** 2)
    return out


# evaluation also knows the internal nodes: log, which diff introduces, and
# the window step with its slope
_EVAL_FUNCTIONS = {**FUNCTIONS, "log": np.log, "step": smooth_step, "step_slope": smooth_step_slope}
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": np.divide, "^": np.power}
_CHECKED = {"/": "division", "^": "power"}


class ExprError(Exception):
    """Base class for expression errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ExprEvalError(ExprError):
    def __init__(self, message: str, t, x):
        super().__init__(f"{message} at (t={t}, x={x})")
        self.t = t
        self.x = x


@dataclass(frozen=True)
class Num:
    value: Union[float, complex]


@dataclass(frozen=True)
class Var:
    name: str  # 't' or 'x'


@dataclass(frozen=True)
class Neg:
    arg: "ExprAst"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "ExprAst"


ExprAst = Union[Num, Var, Neg, Bin, Call]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            off = len(source) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", off)
        if m.group("num") is not None:
            tokens.append(("num", float(m.group("num")), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", off)
        self.next()

    def parse(self) -> ExprAst:
        ast = self.sum()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {val!r}", off)
        return ast

    def _chain(self, ops, operand) -> ExprAst:
        # left associative: operand (op operand)*
        node = operand()
        while self.peek()[0] == "op" and self.peek()[1] in ops:
            node = Bin(self.next()[1], node, operand())
        return node

    def sum(self) -> ExprAst:
        return self._chain(("+", "-"), self.term)

    def term(self) -> ExprAst:
        return self._chain(("*", "/"), self.unary)

    def unary(self) -> ExprAst:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self) -> ExprAst:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            # exponent re-enters unary so '^' is right associative and
            # expressions like 2^-3 parse
            return Bin("^", base, self.unary())
        return base

    def atom(self) -> ExprAst:
        kind, val, off = self.next()
        if kind == "num":
            return Num(val)
        if kind == "ident":
            if val in ("t", "x"):
                return Var(val)
            if val == "pi":
                return Num(math.pi)
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.sum()
                self.expect_op(")")
                return Call(val, arg)
            raise ExprSyntaxError(f"unknown identifier {val!r}", off)
        if kind == "op" and val == "(":
            node = self.sum()
            self.expect_op(")")
            return node
        raise ExprSyntaxError("expected a number, variable or '('", off)


def parse(source: str) -> ExprAst:
    """Parse an expression string into an AST."""
    return _Parser(source).parse()


def as_ast(e) -> ExprAst:
    """An AST from expression source (parsed), a real or complex number, or
    an AST (returned unchanged)."""
    if isinstance(e, str):
        return parse(e)
    if isinstance(e, numbers.Real):
        return Num(float(e))
    return Num(complex(e)) if isinstance(e, numbers.Complex) else e


def _check_finite(value, t, x, what: str):
    bad = ~np.isfinite(np.asarray(value))
    if np.any(bad):
        # report the first bad point of the broadcast (t, x) mesh
        tb, xb, bad = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float), bad)
        first = tuple(np.argwhere(bad)[0])
        raise ExprEvalError(f"non-finite result from {what}", float(tb[first]), float(xb[first]))
    return value


def evaluate(ast: ExprAst, t, x):
    """Evaluate an AST at (t, x); either argument may be a numpy array."""
    with np.errstate(all="ignore"):
        return _eval(ast, t, x)


def _eval(ast: ExprAst, t, x):
    if isinstance(ast, Num):
        return ast.value
    if isinstance(ast, Var):
        return t if ast.name == "t" else x
    if isinstance(ast, Neg):
        return -_eval(ast.arg, t, x)
    if isinstance(ast, Call):
        return _check_finite(_EVAL_FUNCTIONS[ast.func](_eval(ast.arg, t, x)), t, x, ast.func)
    val = _OPS[ast.op](_eval(ast.left, t, x), _eval(ast.right, t, x))
    return _check_finite(val, t, x, _CHECKED[ast.op]) if ast.op in _CHECKED else val


def _children(ast: ExprAst):
    if isinstance(ast, (Neg, Call)):
        return (ast.arg,)
    return (ast.left, ast.right) if isinstance(ast, Bin) else ()


def is_constant(ast: ExprAst) -> bool:
    """True if the expression contains no variable references."""
    return not (uses_var(ast, "t") or uses_var(ast, "x"))


def uses_var(ast: ExprAst, name: str) -> bool:
    """True if the expression references the given variable."""
    if isinstance(ast, Var):
        return ast.name == name
    return any(uses_var(c, name) for c in _children(ast))


def pretty(ast: ExprAst) -> str:
    """Render an AST back to source; fully parenthesized so that
    pretty(parse(pretty(e))) == pretty(e)."""
    if isinstance(ast, Num):
        if isinstance(ast.value, complex) or ast.value < 0:
            return f"({ast.value!r})"
        return repr(ast.value)
    if isinstance(ast, Var):
        return ast.name
    if isinstance(ast, Neg):
        return f"(-{pretty(ast.arg)})"
    if isinstance(ast, Call):
        return f"{ast.func}({pretty(ast.arg)})"
    return f"({pretty(ast.left)}{ast.op}{pretty(ast.right)})"


# ---------------------------------------------------------------------------
# coefficient algebra: constant folding with zero pruning, exact derivatives

ZERO = Num(0.0)
ONE = Num(1.0)


def _num(value) -> Optional[Num]:
    """A folded constant (real when its imaginary part vanishes), or None
    when it is not finite: the node then stays, and evaluating it reports
    the point."""
    value = complex(value)
    value = value.real if value.imag == 0 else value
    return None if not cmath.isfinite(value) else ZERO if value == 0 else Num(value)


def _is(a: ExprAst, value) -> bool:
    return isinstance(a, Num) and a.value == value


def _f(op: str, a: ExprAst, b: Optional[ExprAst] = None) -> ExprAst:
    """A folded new node: op is a binary operator, 'neg' or a function."""
    return fold(Neg(a) if op == "neg" else Bin(op, a, b) if op in _OPS else Call(op, a))


def _split(a: ExprAst):
    """a as (constant factor, rest), so that like terms can be collected."""
    if isinstance(a, Neg):
        c, rest = _split(a.arg)
        return -c, rest
    if isinstance(a, Bin) and a.op == "*" and isinstance(a.left, Num):
        return a.left.value, a.right
    return 1.0, a


def _sum(op: str, a: ExprAst, b: ExprAst) -> ExprAst:
    if _is(b, 0):
        return a
    if _is(a, 0):
        return b if op == "+" else _f("neg", b)
    (ca, ra), (cb, rb) = _split(a), _split(b)
    c = _num(ca + cb if op == "+" else ca - cb)
    if ra == rb and not isinstance(ra, Num) and c is not None:
        return _f("*", c, ra)
    if isinstance(b, Neg):
        return _f("-" if op == "+" else "+", a, b.arg)
    if isinstance(a, Neg):
        return _f("-", b, a.arg) if op == "+" else _f("neg", _f("+", a.arg, b))
    # a canonical operand order makes a+b and b+a (a*b and b*a) one tree
    return Bin(op, *sorted((a, b), key=pretty)) if op == "+" else Bin(op, a, b)


def _mul(a: ExprAst, b: ExprAst) -> ExprAst:
    # normal form: signs outside, one constant factor in front
    if isinstance(b, Num):
        a, b = b, a
    if isinstance(a, Num) and a.value in (0, 1, -1):
        return ZERO if a.value == 0 else b if a.value == 1 else _f("neg", b)
    for u, v in ((a, b), (b, a)):
        if isinstance(u, Neg):
            return _f("neg", _f("*", u.arg, v))
        if isinstance(u, Bin) and u.op == "*" and isinstance(u.left, Num):
            if isinstance(v, Num):
                return _f("*", _f("*", v, u.left), u.right)
            return _f("*", u.left, _f("*", v, u.right))
    return Bin("*", a, b) if isinstance(a, Num) else Bin("*", *sorted((a, b), key=pretty))


def _div(a: ExprAst, b: ExprAst) -> ExprAst:
    if _is(b, 1) or (_is(a, 0) and not _is(b, 0)):
        return a
    if isinstance(a, Neg):
        return _f("neg", _f("/", a.arg, b))
    if isinstance(a, Num) and not _is(a, 1):  # c/b as c*(1/b), so 1/b is shared
        return _f("*", a, _f("/", ONE, b))
    if isinstance(b, Neg):
        return _f("neg", _f("/", a, b.arg))
    return Bin("/", a, b)


_RULES = {
    "+": lambda a, b: _sum("+", a, b),
    "-": lambda a, b: _sum("-", a, b),
    "*": _mul,
    "/": _div,
    "^": lambda a, b: a if _is(b, 1) else ONE if _is(b, 0) else Bin("^", a, b),
}


def fold(node: ExprAst) -> ExprAst:
    """Fold constants and prune zeros and units at the top node of an AST
    whose children are already folded."""
    if isinstance(node, Num):
        return _num(node.value) or node
    kids = _children(node)
    if kids and all(isinstance(k, Num) for k in kids):
        vals = [k.value for k in kids]
        if isinstance(node, Bin) and node.op in "+-*":  # plain Python arithmetic is exact here
            c = _num(_OPS[node.op](*vals))
        else:
            fn = operator.neg if isinstance(node, Neg) else _EVAL_FUNCTIONS[node.func] if isinstance(node, Call) else _OPS[node.op]
            with np.errstate(all="ignore"):
                c = _num(fn(*map(np.asarray, vals)))
        if c is not None:
            return c
    if isinstance(node, Neg) and isinstance(node.arg, Neg):
        return node.arg.arg
    return _RULES[node.op](node.left, node.right) if isinstance(node, Bin) else node


def dot(row: Sequence[ExprAst], col: Sequence[ExprAst]) -> ExprAst:
    """The folded sum of the products row[i] * col[i]."""
    return reduce(lambda acc, ab: _f("+", acc, _f("*", *ab)), zip(row, col), ZERO)


def simplify(ast: ExprAst) -> ExprAst:
    """fold applied bottom-up to the whole AST."""
    if isinstance(ast, (Neg, Call)):
        ast = replace(ast, arg=simplify(ast.arg))
    elif isinstance(ast, Bin):
        ast = replace(ast, left=simplify(ast.left), right=simplify(ast.right))
    return fold(ast)


# the outer derivative f'(u), from the node f(u)
_OUTER = {
    "sin": lambda n: _f("cos", n.arg),
    "cos": lambda n: _f("neg", _f("sin", n.arg)),
    "exp": lambda n: n,
    "tanh": lambda n: _f("-", ONE, _f("*", n, n)),
    "sqrt": lambda n: _f("/", Num(0.5), n),
    "log": lambda n: _f("/", ONE, n.arg),
    "step": lambda n: _f("step_slope", n.arg),
}


def diff(ast: ExprAst, var: str) -> ExprAst:
    """Exact partial derivative with respect to var ('t' or 'x'), folded."""
    if not uses_var(ast, var):
        return ZERO
    if isinstance(ast, Var):
        return ONE
    if isinstance(ast, Neg):
        return _f("neg", diff(ast.arg, var))
    if isinstance(ast, Call):
        return _f("*", _OUTER[ast.func](ast), diff(ast.arg, var))
    a, b, op = ast.left, ast.right, ast.op
    da, db = diff(a, var), diff(b, var)
    if op in ("+", "-"):
        return _f(op, da, db)
    if op == "*":
        return _f("+", _f("*", da, b), _f("*", a, db))
    if op == "/":  # (a/b)' = (a' - (a/b) b') / b
        return _f("/", _f("-", da, _f("*", ast, db)), b)
    if not uses_var(b, var):  # (u^c)' = c u^(c-1) u'
        return _f("*", _f("*", b, _f("^", a, _f("-", b, ONE))), da)
    # u^v = exp(v log u), so (u^v)' = u^v (v' log u + v u'/u)
    return _f("*", ast, _f("+", _f("*", db, _f("log", a)), _f("/", _f("*", b, da), a)))


# ---------------------------------------------------------------------------
# evaluation tape

def _stage_key(t):
    """The cache key of a stage time: a scalar, or a column of at most two
    members, the (members, 1) column of a lockstep RK4 march or the slice
    ts[s] of a block, keyed by shape and values, so that a strided column
    and the block's contiguous slice share a key; None for anything
    larger, such as a mesh of times or a whole block."""
    if isinstance(t, float):
        return t
    if isinstance(t, np.ndarray) and t.size <= 2:
        return t.shape, t.tobytes()
    return None


class Tape:
    """ASTs compiled for repeated evaluation on the nodes xs.  Equal
    subtrees share a slot; slots free of t run once, on the first call; a
    call runs the t-dependent slots only, dropping intermediates after their
    last use.  t is a scalar or broadcasts against xs (ts[:, None] for a
    mesh).  A stage time, a scalar or the (members, 1) column of a lockstep
    RK4 march, is answered from a cache: block(ts) runs the t-dependent
    slots once on a stage-major (S, members, 1) stack and caches each ts[s]
    with the slice v[s] of every value, the shape ts[s] alone gives; a call
    that misses evaluates and caches nothing.  Finiteness is checked as in
    evaluate."""

    def __init__(self, asts: Sequence[ExprAst], xs):
        self.xs = np.asarray(xs, dtype=float)
        keys: Dict[tuple, int] = {}

        def intern(a: ExprAst) -> int:
            if isinstance(a, (Num, Var)):
                key = ("num", a.value) if isinstance(a, Num) else ("var", a.name)
            else:
                op = "neg" if isinstance(a, Neg) else a.func if isinstance(a, Call) else a.op
                key = (op,) + tuple(intern(c) for c in _children(a))
            return keys.setdefault(key, len(keys))

        self.outputs = [intern(a) for a in asts]
        self._t = keys.get(("var", "t"), -1)
        self._init, self._static, self._dynamic, tdep = [], [], [], []
        for slot, (op, *args) in enumerate(keys):
            leaf = op in ("num", "var")
            self._init.append(args[0] if op == "num" else self.xs if args == ["x"] else None)
            tdep.append(slot == self._t or (not leaf and any(tdep[a] for a in args)))
            if not leaf:
                fn = operator.neg if op == "neg" else _OPS.get(op) or _EVAL_FUNCTIONS[op]
                what = None if op in ("neg", "+", "-", "*") else _CHECKED.get(op, op)
                (self._dynamic if tdep[slot] else self._static).append([slot, fn, args, what, ()])
        last = {a: n for n, code in enumerate(self._dynamic) for a in code[2] if tdep[a]}
        for a, n in last.items():
            if a not in self.outputs and a != self._t:
                self._dynamic[n][4] += (a,)
        self._sliced = [tdep[s] for s in self.outputs]
        self._values: Optional[List[object]] = None
        self._cache: Dict[object, List[object]] = {}

    def _run(self, code: List[list], vals: List[object], t) -> List[object]:
        with np.errstate(all="ignore"):
            for slot, fn, args, what, free in code:
                v = fn(*[vals[a] for a in args])
                if what is not None and not np.isfinite(v).all():
                    _check_finite(v, t, self.xs, what)
                vals[slot] = v
                for a in free:
                    vals[a] = None
        return vals

    def _evaluate(self, t) -> List[object]:
        if self._values is None:
            self._values = self._run(self._static, list(self._init), t)
        vals = list(self._values)
        if self._t >= 0:
            vals[self._t] = t
        vals = self._run(self._dynamic, vals, t)
        return [vals[s] for s in self.outputs]

    def __call__(self, t) -> List[object]:
        """The value of every compiled AST at time(s) t on xs, from the
        block cache if the last block held t."""
        out = self._cache.get(_stage_key(t))
        return self._evaluate(t) if out is None else out

    def block(self, ts: np.ndarray) -> None:
        """Evaluate at every stage time ts[s] of the stage-major (S, members,
        1) stack ts in one run and cache the values, in place of the stage
        times cached before.  A non-finite value raises the ExprEvalError
        that evaluating ts[0], ts[1], ... one by one raises first."""
        try:
            out = self._evaluate(ts)
        except ExprEvalError:
            for t in ts:
                self._evaluate(t)
            raise
        self._cache = {
            _stage_key(t): [v[s] if sliced else v for v, sliced in zip(out, self._sliced)]
            for s, t in enumerate(ts)
        }

    def stack(self, t) -> np.ndarray:
        """The compiled ASTs at time(s) t as one complex array whose last
        axis runs over the ASTs: (len(xs), n) for a scalar t."""
        shape = np.broadcast_shapes(np.shape(t), self.xs.shape)
        return np.stack([np.broadcast_to(v, shape) for v in self(t)], axis=-1).astype(complex, copy=False)
