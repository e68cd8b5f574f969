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
exact derivatives (with an internal log node for u^v), Tape compiles
ASTs for repeated evaluation on one row of nodes, and compile_points
compiles them into a straight-line function of a few points, which does
evaluate's operations on floats (the causal-shadow sweeps).  pretty keeps
each node's string on the node.  parse rejects the internal log, step and
step_slope nodes; the last two build windows.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
import re
from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable, Dict, List, Optional, Sequence, Union

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

_NUMBER = r"(?:\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
# a number literal with a j suffix is imaginary
_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<num>{_NUMBER})(?P<imag>j)?"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)
# pretty writes a complex constant c as (repr(c)): (2j), (-2j), ((1-2j)) or
# ((-0-2j)).  A parenthesized repr that is no function's argument list is
# read as that constant, so that the sign of a zero real part survives it:
# -(2j) is (-0-2j), where the repr -2j is 0 - 2j
_COMPLEX_RE = re.compile(rf"\s*(?P<complex>\((?:(?P<re>[+-]?{_NUMBER})(?P<im>[+-]{_NUMBER})|(?P<alone>[+-]?{_NUMBER}))j\))")


def _tokenize(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        c = None if tokens and tokens[-1][0] == "ident" else _COMPLEX_RE.match(source, pos)
        if c is not None:
            real = float(c.group("re")) if c.group("re") else 0.0
            tokens.append(("num", complex(real, float(c.group("im") or c.group("alone"))), c.start("complex")))
            pos = c.end()
            continue
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            off = len(source) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", off)
        if m.group("num") is not None:
            text = m.group("num")
            tokens.append(("num", complex(0.0, float(text)) if m.group("imag") else float(text), m.start("num")))
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


def compile_points(asts: Sequence[ExprAst], n: int) -> Callable:
    """The ASTs compiled into one straight-line function f(t, x_0, ...,
    x_{n-1}) of n points (t, x_i) with one t, returning per AST the tuple
    of its n values.  f makes _eval's calls in _eval's order, node by node,
    each node that uses x at every point before the next node, and checks
    finiteness where _eval does; so inside np.errstate(all="ignore") its
    values and the ExprEvalError it raises are evaluate's on the array of
    the n x_i, one AST after the other, as long as numpy gives a scalar the
    value it gives an element of an array.  The ASTs are real."""
    env: Dict[str, object] = {"_isfinite": math.isfinite, "_bad": _raise_at_first}
    lines: List[str] = []
    xs = [f"x{i}" for i in range(n)]

    def bind(value) -> str:
        name = f"_c{len(env)}"
        env[name] = value
        return name

    def emit(ast: ExprAst) -> List[str]:
        # the names of the node's values at the n points: n names when the
        # node uses x, else one name repeated
        if isinstance(ast, Num):
            return [bind(ast.value)] * n
        if isinstance(ast, Var):
            return ["t"] * n if ast.name == "t" else xs
        kids = [emit(c) for c in _children(ast)]
        if isinstance(ast, Neg):
            form, what = "-{0}", None
        elif isinstance(ast, Call):
            form, what = bind(_EVAL_FUNCTIONS[ast.func]) + "({0})", ast.func
        elif ast.op in _CHECKED:
            form, what = bind(_OPS[ast.op]) + "({0}, {1})", _CHECKED[ast.op]
        else:
            form, what = "{0} " + ast.op + " {1}", None
        pointwise = any(len(set(k)) > 1 for k in kids)
        out = [f"_v{len(lines)}_{i}" for i in range(n)] if pointwise else [f"_v{len(lines)}"] * n
        for i in range(n if pointwise else 1):
            lines.append(f"    {out[i]} = " + form.format(*(k[i] for k in kids)))
        if what is not None:
            vals = out if pointwise else out[:1]
            lines.append(
                f"    if not ({' and '.join(f'_isfinite({v})' for v in vals)}):\n"
                f"        _bad({what!r}, t, ({', '.join(xs)},), ({', '.join(vals)},))"
            )
        return out

    results = [emit(a) for a in asts]
    body = "\n".join(lines + ["    return (" + "".join(f"({', '.join(r)},), " for r in results) + ")"])
    exec(f"def points(t, {', '.join(xs)}):\n{body}\n", env)
    return env["points"]


def _raise_at_first(what: str, t, xs, values):
    """compile_points' failure: the ExprEvalError _check_finite raises on
    the values at (t, xs[i]), values[i] for one value shared by every point."""
    i = next(i for i, v in enumerate(values) if not math.isfinite(v))
    raise ExprEvalError(f"non-finite result from {what}", float(t), float(xs[i]))


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


def is_real(ast: ExprAst) -> bool:
    """True if every number in the expression is real, so that its values
    are real wherever they are finite."""
    if isinstance(ast, Num):
        return complex(ast.value).imag == 0
    return all(is_real(c) for c in _children(ast))


def pretty(ast: ExprAst) -> str:
    """Render an AST back to source; fully parenthesized so that
    pretty(parse(pretty(e))) == pretty(e).  The string is kept on the node
    (fold sorts operands by it), outside the dataclass fields, so it enters
    neither ==, hash nor repr."""
    text = ast.__dict__.get("_pretty")
    if text is None:
        text = _render(ast)
        object.__setattr__(ast, "_pretty", text)
    return text


def _render(ast: ExprAst) -> str:
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

class Tape:
    """ASTs compiled for repeated evaluation on the nodes xs.  Equal
    subtrees share a slot; slots free of t run once, on the first call; a
    call runs the t-dependent slots only, dropping intermediates after their
    last use.  t is a scalar or broadcasts against xs (ts[:, None] for a
    mesh).  stages(ts) evaluates a stage-major stack of RK4 stage times in
    one run.  Finiteness is checked as in evaluate.  constant is True when
    no compiled AST depends on t."""

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
        self.constant = not any(self._sliced)
        self._values: Optional[List[object]] = None

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

    def __call__(self, t) -> List[object]:
        """The value of every compiled AST at time(s) t on xs."""
        if self._values is None:
            self._values = self._run(self._static, list(self._init), t)
        vals = list(self._values)
        if self._t >= 0:
            vals[self._t] = t
        vals = self._run(self._dynamic, vals, t)
        return [vals[s] for s in self.outputs]

    def stages(self, ts: np.ndarray) -> List[List[object]]:
        """The values at every stage time ts[s] of the stage-major (S,
        members, 1) stack ts, from one run: per stage, the slice v[s] of
        each t-dependent value v, the shape ts[s] alone gives, and each
        other value whole.  A t-dependent value free of x, one number per
        stage and member, is cast to complex once for the whole stack: a
        product with a complex state makes it complex either way.  A
        non-finite value raises the ExprEvalError that evaluating ts[0],
        ts[1], ... one by one raises first."""
        try:
            out = self(ts)
        except ExprEvalError:
            for t in ts:
                self(t)
            raise
        out = [
            np.asarray(v, dtype=complex) if sliced and np.shape(v)[-1:] == (1,) else v
            for v, sliced in zip(out, self._sliced)
        ]
        return [[v[s] if sliced else v for v, sliced in zip(out, self._sliced)] for s in range(len(ts))]

    def stack(self, t, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The compiled ASTs at time(s) t as one complex array whose last
        axis runs over the ASTs, written into out if given: (len(xs), n)
        for a scalar t.  On a mesh, t a column of times (m, 1), it runs
        block by block of levels (grids.level_blocks), each block's values
        written straight into that array; a non-finite value raises the
        ExprEvalError that the whole mesh at once raises."""
        from .grids import level_blocks  # grids imports this module

        shape = np.broadcast_shapes(np.shape(t), self.xs.shape)
        if out is None:
            out = np.empty(shape + (len(self.outputs),), dtype=complex)
        if np.ndim(t) < 2:
            for n, v in enumerate(self(t)):
                out[..., n] = v
            return out
        try:
            for a, b, _, _ in level_blocks(len(out), out[0].nbytes):
                for n, v in enumerate(self(t[a:b])):
                    out[a:b, ..., n] = v
        except ExprEvalError:
            self(t)
            raise
        return out
