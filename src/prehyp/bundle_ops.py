"""First- and second-order matrix-coefficient operators on the trivial
rank-k bundle: principal symbols, composition, formal adjoints, the
hyperbolicity predicates, the bilinear dual pairing and discrete operator
application.

Coefficient fields are symbolic: a k x k matrix of expression ASTs.  The
derivatives that composition and adjoints need are exact (expr.diff), and
constant folding prunes the entries that vanish identically.  The formal
adjoint cancels the volume density alpha beta against the factors 1/alpha
and 1/beta of a principal part: where d_t beta and d_x alpha are 0, a
Dirac pair's adjoint has no divergence term and its P*Q* has s Id
fields, as QP has.  Compositions, formal adjoints and default-sampled pair
checks are kept on the operators they were computed from, so a run does
each once per operator it holds; PQ is the QP already composed where the
two have the same fields, so that what the solvers keep on a second-order
operator, its right-hand side per grid, serves both.  Solvers and
apply_operator compile the
nonzero entries of an operator once into an evaluation tape
(coefficient_tape), which gives every field as its entries, and apply
each field through the one product that product(field) chooses for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import expr as _expr
from .expr import Bin, Neg, Num
from .geometry import DiagonalMetric
from .grids import Grid1p1, GridSection, block_levels, d_t, d_tt, d_x, d_xx, level_blocks


class RankMismatchError(ValueError):
    pass


class StencilError(ValueError):
    pass


# ---------------------------------------------------------------------------
# matrix-valued coefficient fields

def _as_ast(e) -> "_expr.ExprAst":
    """A folded AST from an expression string, a number or an AST."""
    return _expr.simplify(_expr.as_ast(e))


def _bin(op: str, a, b) -> "_expr.ExprAst":
    return _expr.fold(Bin(op, a, b))


class MatrixField:
    """A k x k complex-matrix-valued field over (t, x): one folded
    expression AST per entry.  Fields whose entries are all numbers carry
    their value as a constant matrix."""

    def __init__(self, entries: Sequence[Sequence["_expr.ExprAst"]]):
        self.entries = tuple(tuple(row) for row in entries)
        self.k = len(self.entries)
        if any(len(row) != self.k for row in self.entries):
            raise ValueError("coefficient matrix must be square")
        self.constant = None
        if all(isinstance(e, Num) for row in self.entries for e in row):
            self.constant = np.array([[e.value for e in row] for row in self.entries], dtype=complex)

    @property
    def is_constant(self) -> bool:
        return self.constant is not None

    @property
    def is_zero(self) -> bool:
        return self.is_constant and not self.constant.any()

    @cached_property
    def diagonal(self) -> Optional["_expr.ExprAst"]:
        """s when the field is s Id for one expression s, else None; found
        once per field, its entries being tuples."""
        s = self.entries[0][0]
        if all(e == (s if i == j else _expr.ZERO) for i, row in enumerate(self.entries) for j, e in enumerate(row)):
            return s
        return None

    @cached_property
    def scalar(self) -> Optional[complex]:
        """c when the field is the constant c Id, else None."""
        s = self.diagonal
        return complex(s.value) if isinstance(s, Num) else None

    @classmethod
    def from_constant(cls, mat) -> "MatrixField":
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("constant matrix field needs a square matrix")
        return cls([[_as_ast(v) for v in row] for row in mat])

    @classmethod
    def zero(cls, k: int) -> "MatrixField":
        return cls.from_constant(np.zeros((k, k)))

    @classmethod
    def from_exprs(cls, entries: Sequence[Sequence[Union[str, "_expr.ExprAst", float, complex]]]) -> "MatrixField":
        return cls([[_as_ast(e) for e in row] for row in entries])

    def nonzero(self) -> List[Tuple[int, int, "_expr.ExprAst"]]:
        return [(i, j, e) for i, row in enumerate(self.entries) for j, e in enumerate(row) if e != _expr.ZERO]

    def to_exprs(self) -> List[List[Union[str, float, complex]]]:
        """Entries as numbers where constant, else as expression source."""
        return [[e.value if isinstance(e, Num) else _expr.pretty(e) for e in row] for row in self.entries]

    def eval(self, t, xs: np.ndarray) -> np.ndarray:
        """Values at the points (t, xs[n]), or (t[n], xs[n]) for an array t
        shaped like xs: shape (len(xs), k, k)."""
        if self.is_constant:
            return np.broadcast_to(self.constant, (len(xs), self.k, self.k))
        xs = np.asarray(xs, dtype=float)
        out = np.zeros((len(xs), self.k, self.k), dtype=complex)
        for i, j, e in self.nonzero():
            out[:, i, j] = _expr.evaluate(e, t, xs)
        return out

    def at(self, t: float, x: float) -> np.ndarray:
        return self.eval(t, np.array([float(x)]))[0].copy()

    # -- algebra (entry-wise on folded ASTs) --------------------------------

    def _map(self, fn: Callable) -> "MatrixField":
        return MatrixField([[fn(e) for e in row] for row in self.entries])

    def _zip(self, op: str, other: "MatrixField") -> "MatrixField":
        return MatrixField([[_bin(op, a, b) for a, b in zip(*rows)] for rows in zip(self.entries, other.entries)])

    def __add__(self, other: "MatrixField") -> "MatrixField":
        return self._zip("+", other)

    def __sub__(self, other: "MatrixField") -> "MatrixField":
        return self._zip("-", other)

    def __neg__(self) -> "MatrixField":
        return self._map(lambda e: _expr.fold(Neg(e)))

    def __matmul__(self, other: "MatrixField") -> "MatrixField":
        if self.is_constant and other.is_constant:
            return MatrixField.from_constant(self.constant @ other.constant)

        return MatrixField([[_expr.dot(row, col) for col in zip(*other.entries)] for row in self.entries])

    def transpose(self) -> "MatrixField":
        return MatrixField(list(zip(*self.entries)))

    def scale(self, s: Union[complex, "_expr.ExprAst"]) -> "MatrixField":
        """Multiply every entry by a number or a scalar expression."""
        s = _as_ast(s)
        return self._map(lambda e: _bin("*", s, e))

    def inverse(self) -> "MatrixField":
        """Adjugate over determinant, entry by entry (Laplace expansion)."""
        if self.is_constant:
            return MatrixField.from_constant(np.linalg.inv(self.constant))
        idx = tuple(range(self.k))

        def det(rows, cols):
            if not rows:
                return _expr.ONE
            acc = _expr.ZERO
            for n, c in enumerate(cols):
                term = _bin("*", self.entries[rows[0]][c], det(rows[1:], cols[:n] + cols[n + 1:]))
                acc = _bin("-" if n % 2 else "+", acc, term)
            return acc

        def entry(i, j):  # the (j, i) cofactor over the determinant
            minor = det(idx[:j] + idx[j + 1:], idx[:i] + idx[i + 1:])
            return _bin("/", minor if (i + j) % 2 == 0 else _expr.fold(Neg(minor)), d)

        d = det(idx, idx)
        return MatrixField([[entry(i, j) for j in idx] for i in idx])

    def d_dt(self) -> "MatrixField":
        return self._map(lambda e: _expr.diff(e, "t"))

    def d_dx(self) -> "MatrixField":
        return self._map(lambda e: _expr.diff(e, "x"))


def coefficient_tape(fields: Sequence[MatrixField], xs: np.ndarray) -> Callable:
    """Compile the nonzero entries of several fields into one expr.Tape on
    the nodes xs.  Returns at(t) giving, per field, its value as product
    applies it: its nonzero entries as (i, j, value at t on xs) triples,
    in row-major order; a constant entry is a constant slot of the tape,
    its value a number.  at.stages(ts) gives that list for every stage
    time of a stage-major stack ts, from one run of the tape (Tape.stages,
    which gives a value of t alone as complex); for a constant tape it is
    one list, built on the first call, repeated."""
    nonzero = [f.nonzero() for f in fields]
    tape = _expr.Tape([e for entries in nonzero for _, _, e in entries], xs)

    def values(vals: list) -> list:
        vals = iter(vals)
        return [[(i, j, next(vals)) for i, j, _ in entries] for entries in nonzero]

    def at(t):
        return values(tape(t))

    if tape.constant:
        held = []

        def stages(ts):
            if not held:
                held.append(values(tape.stages(ts)[0]))
            return held * len(ts)

        at.stages = stages
    else:
        at.stages = lambda ts: [values(vals) for vals in tape.stages(ts)]
    return at


def product(field: MatrixField) -> Callable:
    """bind(w, out) -> run(c): run writes field @ w over the last axis of w
    into out and returns it, c the field's entries as coefficient_tape
    gives them; for the identity it writes nothing and returns w.  This is
    the one choice of how a field is applied, made once per field, among
    four kinds: the identity; a constant c Id, any complex c, applied as
    the number c; a non-constant s Id, whose diagonal entries share one
    tape value, applied as the broadcast product s * w; and every other
    field, constant or not, contracted entry by entry (_contraction).
    bind takes every view once, so a run sees w as it is then; out is not
    w.  Values equal the matrix product's up to the sign of zeros."""
    s = field.scalar
    if s == 1:
        return lambda w, out: lambda c: w
    if s is not None:
        return lambda w, out: lambda c: np.multiply(s, w, out)
    if field.diagonal is not None:
        return lambda w, out: lambda c: np.multiply(np.asarray(c[0][2])[..., None], w, out)
    return _contraction


def _contraction(w: np.ndarray, out: np.ndarray) -> Callable:
    """product's bind for a general field.  c lists the entries row by
    row, as coefficient_tape gives them: run(c) writes each row's first
    entry times its column into the row, multiplies each later entry of
    the row into one scratch term and adds it, and fills a row with no
    nonzero entry with 0."""
    k = w.shape[-1]
    columns, rows = [w[..., j] for j in range(k)], [out[..., i] for i in range(k)]
    term = np.empty(w.shape[:-1], dtype=complex)

    def run(c) -> np.ndarray:
        filled = 0  # the rows before this one are written
        for i, j, val in c:
            if i < filled:
                np.multiply(val, columns[j], term)
                np.add(rows[i], term, rows[i])
                continue
            for row in rows[filled:i]:
                row.fill(0.0)
            np.multiply(val, columns[j], rows[i])
            filled = i + 1
        for row in rows[filled:]:
            row.fill(0.0)
        return out

    return run


def as_matrix_field(value) -> MatrixField:
    """A field from a MatrixField, a numeric matrix or a matrix of expressions."""
    return value if isinstance(value, MatrixField) else MatrixField.from_exprs(value)


# ---------------------------------------------------------------------------
# operators

@dataclass(frozen=True)
class FirstOrderOperator:
    """P Phi = A^t d_t Phi + A^x d_x Phi + B Phi.  B is the whole order-0
    part: in a chart a bundle connection is an order-0 term,
    A^mu (d_mu + omega_mu) = A^mu d_mu + A^mu omega_mu, so it enters B.

    compose, formal_adjoint and the default-sampled is_complementary_pair
    keep their results on their first operand, keyed on the others, and
    the solvers its direct right-hand side per grid (kept): each is
    computed once for the operators a caller holds, and dropped with
    them."""

    k: int
    a_t: MatrixField
    a_x: MatrixField
    b: MatrixField
    _memo: Dict[tuple, object] = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def build(cls, a_t, a_x, b) -> "FirstOrderOperator":
        fields = [as_matrix_field(f) for f in (a_t, a_x, b)]
        return cls(fields[0].k, *fields)


@dataclass
class SecondOrderOperator:
    """L Phi = C^tt d_t^2 Phi + 2 C^tx d_t d_x Phi + C^xx d_x^2 Phi
    + D^t d_t Phi + D^x d_x Phi + E Phi.

    The solvers keep its march set-up on it, one per grid (kept)."""

    k: int
    c_tt: MatrixField
    c_tx: MatrixField
    c_xx: MatrixField
    d_t: MatrixField
    d_x: MatrixField
    e: MatrixField
    _memo: Dict[tuple, object] = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def fields(self) -> Tuple[MatrixField, ...]:
        return (self.c_tt, self.c_tx, self.c_xx, self.d_t, self.d_x, self.e)

    @property
    def is_constant(self) -> bool:
        return all(f.is_constant for f in self.fields)

    def same_fields(self, other: "SecondOrderOperator") -> bool:
        """Whether other has this operator's fields, entry for entry: the
        same operator, whose march is this one's."""
        return self.k == other.k and all(a.entries == b.entries for a, b in zip(self.fields, other.fields))


# ---------------------------------------------------------------------------
# principal symbols and hyperbolicity predicates

def _columns(point, xi):
    """t, x and xi_t, xi_x from a point (t, x) and a covector (xi_t,
    xi_x), or from (n, 2) arrays of n of them: t and x as (n,) arrays, the
    covector components shaped (n, 1, 1) to scale (n, k, k) matrices."""
    point, xi = np.broadcast_arrays(np.atleast_2d(np.asarray(point, dtype=float)), np.atleast_2d(np.asarray(xi, dtype=float)))
    return point[:, 0], point[:, 1], xi[:, 0, None, None], xi[:, 1, None, None]


def _single(point, xi, values: np.ndarray) -> np.ndarray:
    """values[0] for a single point and covector, else values."""
    return values[0] if np.ndim(point) == 1 and np.ndim(xi) == 1 else values


def principal_symbol_1(op: FirstOrderOperator, point, xi) -> np.ndarray:
    """sigma_P(xi) = A^t xi_t + A^x xi_x; B does not enter.
    A single point and covector give (k, k); (n, 2) arrays of points or
    covectors give (n, k, k)."""
    t, x, xi_t, xi_x = _columns(point, xi)
    return _single(point, xi, op.a_t.eval(t, x) * xi_t + op.a_x.eval(t, x) * xi_x)


def principal_symbol_2(op: SecondOrderOperator, point, xi) -> np.ndarray:
    """sigma_L(xi) = C^tt xi_t^2 + 2 C^tx xi_t xi_x + C^xx xi_x^2, shaped as
    principal_symbol_1; squared with float_power, as in
    DiagonalMetric.inverse_on_covector."""
    t, x, xi_t, xi_x = _columns(point, xi)
    sigma = (
        op.c_tt.eval(t, x) * np.float_power(xi_t, 2)
        + 2.0 * op.c_tx.eval(t, x) * xi_t * xi_x
        + op.c_xx.eval(t, x) * np.float_power(xi_x, 2)
    )
    return _single(point, xi, sigma)


def kept(owner: Union[FirstOrderOperator, SecondOrderOperator], key: tuple, build: Callable[[], object]):
    """The result kept on an operator under key, built on the first
    request."""
    if key not in owner._memo:
        owner._memo[key] = build()
    return owner._memo[key]


def compose(p: FirstOrderOperator, q: FirstOrderOperator) -> SecondOrderOperator:
    """Expand P(Q Phi) by the product rule into a second-order operator,
    once per pair of operators (kept on p).  Where QP, kept on q, has the
    same fields, PQ is that operator, so that the two share what is kept
    on it."""
    return kept(p, ("compose", q), lambda: _shared(_compose(p, q), q._memo.get(("compose", p))))


def _shared(new: SecondOrderOperator, held: Optional[SecondOrderOperator]) -> SecondOrderOperator:
    """held where it has the fields of new, else new."""
    return held if held is not None and held.same_fields(new) else new


def _compose(p: FirstOrderOperator, q: FirstOrderOperator) -> SecondOrderOperator:
    if p.k != q.k:
        raise RankMismatchError(f"rank mismatch: {p.k} vs {q.k}")
    pat, pax, pb = p.a_t, p.a_x, p.b
    qat, qax, qb = q.a_t, q.a_x, q.b

    c_tt = pat @ qat
    c_tx = ((pat @ qax) + (pax @ qat)).scale(0.5)
    c_xx = pax @ qax
    dt_coeff = (pat @ qat.d_dt()) + (pax @ qat.d_dx()) + (pat @ qb) + (pb @ qat)
    dx_coeff = (pat @ qax.d_dt()) + (pax @ qax.d_dx()) + (pax @ qb) + (pb @ qax)
    e = (pat @ qb.d_dt()) + (pax @ qb.d_dx()) + (pb @ qb)
    return SecondOrderOperator(p.k, c_tt, c_tx, c_xx, dt_coeff, dx_coeff, e)


POLARIZATION_COVECTORS = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))


@dataclass
class HyperbolicityReport:
    passed: bool
    max_deviation: float
    tol: float
    worst_point: Optional[Tuple[float, float]] = None
    worst_covector: Optional[Tuple[float, float]] = None


def default_symbol_tol(constant_coefficients: bool, coeff_scale: float) -> float:
    if constant_coefficients:
        return 1e-12 * (1.0 + coeff_scale)
    return 1e-8


def metric_sample_points(metric: DiagonalMetric) -> List[Tuple[float, float]]:
    """A 3 x 9 lattice of the chart, corners included."""
    chart = metric.chart
    ts = np.linspace(chart.t_min, chart.t_max, 3)
    xs = np.linspace(chart.x_min, chart.x_max, 9)
    return [(float(t), float(x)) for t in ts for x in xs]


def is_normally_hyperbolic(op: SecondOrderOperator, metric: DiagonalMetric) -> HyperbolicityReport:
    """Check sigma_L(xi) == g(xi, xi) Id at the polarization covector set,
    at the metric_sample_points.

    Three covectors determine a quadratic form in two dimensions, so the
    check at {(1,0), (0,1), (1,1)} is sufficient pointwise.
    """
    sample_points = metric_sample_points(metric)
    constant = op.is_constant and metric.is_constant
    scale = max(np.max(np.abs(f.constant)) for f in (op.c_tt, op.c_tx, op.c_xx)) if constant else 1.0
    tol = default_symbol_tol(constant, float(scale))
    # every sample point with every covector, in the order the report
    # names the first worst one: points outer, covectors inner
    n_xi = len(POLARIZATION_COVECTORS)
    points = np.repeat(np.asarray(sample_points, dtype=float), n_xi, axis=0)
    xis = np.tile(POLARIZATION_COVECTORS, (len(sample_points), 1))
    g = metric.inverse_on_covector(points, xis)
    dev = np.max(np.abs(principal_symbol_2(op, points, xis) - g[:, None, None] * np.eye(op.k)), axis=(1, 2))
    i = int(np.argmax(dev))
    worst = float(dev[i])
    at = (sample_points[i // n_xi], POLARIZATION_COVECTORS[i % n_xi]) if worst != 0.0 else (None, None)
    return HyperbolicityReport(worst < tol, worst, tol, *at)


@dataclass
class PairReport:
    passed: bool
    pq: HyperbolicityReport
    qp: HyperbolicityReport

    @property
    def max_deviation(self) -> float:
        return max(self.pq.max_deviation, self.qp.max_deviation)


def is_complementary_pair(p: FirstOrderOperator, q: FirstOrderOperator, metric: DiagonalMetric) -> PairReport:
    """Check that both PQ and QP are normally hyperbolic, once per pair and
    metric (kept on p)."""
    return kept(p, ("pair", q, metric), lambda: _pair_check(p, q, metric))


def _pair_check(p: FirstOrderOperator, q: FirstOrderOperator, metric: DiagonalMetric) -> PairReport:
    pq = is_normally_hyperbolic(compose(p, q), metric)
    qp = is_normally_hyperbolic(compose(q, p), metric)
    return PairReport(pq.passed and qp.passed, pq, qp)


@dataclass
class InvertibilityReport:
    invertible: bool
    abs_det: float
    condition_estimate: float


def symbol_invertibility(op: FirstOrderOperator, point, xi) -> InvertibilityReport:
    """Whether sigma_P(xi) is invertible: |det| above 1e-12 relative to its
    largest entry (its power by float_power, as in
    DiagonalMetric.inverse_on_covector).
    For (n, 2) arrays of points or covectors each field is an array of n."""
    sigma = principal_symbol_1(op, point, xi)
    abs_det = np.abs(np.linalg.det(sigma))
    peak = np.max(np.abs(sigma), axis=(-2, -1))
    scale = np.where(peak > 0, peak, 1.0)
    invertible = abs_det > 1e-12 * np.float_power(scale, op.k)
    cond = np.where(invertible, np.linalg.cond(sigma), np.inf)
    if sigma.ndim == 2:
        return InvertibilityReport(bool(invertible), float(abs_det), float(cond))
    return InvertibilityReport(invertible, abs_det, cond)


# ---------------------------------------------------------------------------
# formal adjoint and the bilinear pairing

def formal_adjoint(p: FirstOrderOperator, metric: DiagonalMetric) -> FirstOrderOperator:
    """Adjoint against the bilinear pairing int psi(phi) rho dt dx with
    rho = alpha * beta: coefficients -A^T and B^T - (1/rho) d_mu(rho A^mu,T).

    The pairing is bilinear (dual bundle, no complex conjugation), so
    matrices transpose without conjugation.  Built once per metric (kept
    on p).
    """
    return kept(p, ("adjoint", metric), lambda: _formal_adjoint(p, metric))


def _formal_adjoint(p: FirstOrderOperator, metric: DiagonalMetric) -> FirstOrderOperator:
    """formal_adjoint's body.  rho A^mu,T cancels rho where an entry allows
    (_times_density); on a Dirac pair with d_t beta = d_x alpha = 0 the
    divergence term then folds to 0, so the adjoint's B is B^T."""
    rho = _expr.simplify(Bin("*", metric.alpha_ast, metric.beta_ast))
    at_t, at_x = p.a_t.transpose(), p.a_x.transpose()
    rho_at_t, rho_at_x = (_times_density(f, metric, rho) for f in (at_t, at_x))
    div_term = (rho_at_t.d_dt() + rho_at_x.d_dx()).scale(_bin("/", _expr.ONE, rho))
    return FirstOrderOperator(p.k, -at_t, -at_x, p.b.transpose() - div_term)


def _times_density(f: MatrixField, metric: DiagonalMetric, rho: "_expr.ExprAst") -> MatrixField:
    """f.scale(rho), rho = alpha * beta, except that an entry c * (1/alpha)
    gives c * beta and c * (1/beta) gives c * alpha, for a number c."""
    alpha, beta = _as_ast(metric.alpha_ast), _as_ast(metric.beta_ast)
    cofactor = {_bin("/", _expr.ONE, a): b for a, b in ((alpha, beta), (beta, alpha))}
    rho = _as_ast(rho)

    def entry(e):
        c, rest = _expr._split(e)
        other = None if isinstance(rest, Num) else cofactor.get(rest)
        return _bin("*", rho, e) if other is None else _bin("*", Num(c), other)

    return f._map(entry)


def pairing(psi: GridSection, phi: GridSection, metric: DiagonalMetric, grid: Optional[Grid1p1] = None) -> complex:
    """Bilinear spacetime pairing <psi, phi> = int sum_i psi_i phi_i rho,
    by trapezoidal quadrature over the chart.  The density is taken only
    on the levels both sections hold, the x-integral is 0 on the others,
    and the t-trapezoid runs over every level, so the sum is that over the
    whole mesh."""
    grid = grid or phi.grid
    if psi.values.shape[1:] != phi.values.shape[1:]:
        raise ValueError("sections must share the grid and rank")
    lo, hi = max(psi.first, phi.first), min(psi.stop, phi.stop)
    inner_x = np.zeros(grid.nt, dtype=complex)
    if lo < hi:
        rho = np.broadcast_to(np.asarray(metric.volume_density(grid.ts[lo:hi, None], grid.xs[None, :])), (hi - lo, grid.nx))
        both = (s.values[lo - s.first:hi - s.first] for s in (psi, phi))
        density = np.einsum("tnc,tnc->tn", *both) * rho
        if grid.periodic:
            inner_x[lo:hi] = density.sum(axis=1) * grid.dx
        else:
            inner_x[lo:hi] = np.trapezoid(density, dx=grid.dx, axis=1)
    return complex(np.trapezoid(inner_x, dx=grid.dt))


# ---------------------------------------------------------------------------
# discrete application

def apply_operator(op: Union[FirstOrderOperator, SecondOrderOperator], phi: GridSection) -> GridSection:
    """Discrete realization of the operator on a sampled section: centered
    2nd-order differences in t and x (one-sided at edges).  The output
    holds the stencil window of the levels phi holds, the levels whose
    stencils read one of them: a level reads the levels next to it, and an
    end level 4 levels in.  It is 0 at the others, which cost no stencil,
    product or coefficient: the levels before a driven solution's source
    and outside a march's span (zeros may differ in sign from the sum's).
    The coefficients are evaluated on the window's levels at once; the
    rest runs block by block of levels (grids.level_blocks), so that its
    arrays stay the size of a block: each block's first term is written
    into the output, each later one into one block scratch and added, in
    the order of the sum of terms, so the values are those of that sum on
    the whole mesh."""
    grid = phi.grid
    nt = grid.nt
    if nt < 4 or grid.nx < 4:
        raise StencilError("grid too small for the stencil")
    v, held, last = np.ascontiguousarray(phi.values), phi.first, phi.stop - 1
    first = isinstance(op, FirstOrderOperator)
    if first:
        fields = (op.a_t, op.a_x, op.b)
    else:
        fields = (op.c_tt, op.c_tx.scale(2.0), *op.fields[2:])
    binds = [product(f) for f in fields]
    if not len(v):
        return GridSection(grid, np.empty(v.shape, complex))
    start = 0 if held < 4 else held - 1
    stop = nt if last >= nt - 4 else last + 2
    coeffs = coefficient_tape(fields, grid.xs)(grid.ts[start:stop, None])
    out = np.empty((stop - start,) + v.shape[1:], complex)
    level = out[0].nbytes
    # the stencils of the levels between read only levels phi holds; those
    # at either end, which read a level it does not hold, run as pieces of
    # their own, whose few levels are copied with 0 beside them (_levels)
    inner = (min(held + 2, stop), max(last - 1, start))
    pieces = [(start, inner[0]), inner, (inner[1], stop)] if inner[0] < inner[1] else [(start, stop)]
    size = max(block_levels(level, b - a) for a, b in pieces)
    # the levels an end piece's stencils read, the t-stencils' window, an
    # x-stencil's block and the terms after the first
    reads = np.empty((max(max(b - a for a, b in pieces if (a, b) != inner) + 2, 4),) + v.shape[1:], v.dtype)
    window = np.empty((max(size + 2, 4),) + v.shape[1:], v.dtype)
    block = np.empty((size,) + v.shape[1:], v.dtype)
    scratch = np.empty((size,) + v.shape[1:], complex)
    for a, b, lo, hi in [blocks for piece in pieces for blocks in level_blocks(nt, level, *piece)]:
        into, rows, n = out[a - start:b - start], slice(a - lo, b - lo), b - a
        w = _levels(v, held, lo, hi, reads)

        def term(f: int, u: np.ndarray) -> None:
            # the f-th term on the block's rows u, written or added into into
            c = [(i, j, val[a - start:b - start] if np.ndim(val) == 2 else val) for i, j, val in coeffs[f]]
            if f == 0:
                value = binds[f](u, into)(c)
                if value is not into:
                    np.copyto(into, value)
            else:
                np.add(into, binds[f](u, scratch[:n])(c), into)

        if first:
            term(0, d_t(w, grid, window[:hi - lo])[rows])
            term(1, d_x(w[rows], grid, block[:n]))
            term(2, w[rows])
            continue
        term(0, d_tt(w, grid, window[:hi - lo])[rows])
        vt = d_t(w, grid, window[:hi - lo])[rows]
        term(1, d_x(vt, grid, block[:n]))
        term(2, d_xx(w[rows], grid, block[:n]))
        term(3, vt)
        term(4, d_x(w[rows], grid, block[:n]))
        term(5, w[rows])
    return GridSection(grid, out, start)


def _levels(v: np.ndarray, first: int, lo: int, hi: int, pad: np.ndarray) -> np.ndarray:
    """The levels lo..hi-1 of a section holding v from level first on: a
    view of v where it holds them all, else copied into pad, 0 at the
    levels it does not hold."""
    a, b = max(lo, first), min(hi, first + len(v))
    if a == lo and b == hi:
        return v[lo - first:hi - first]
    rows = pad[:hi - lo]
    rows.fill(0.0)
    if a < b:
        rows[a - lo:b - lo] = v[a - first:b - first]
    return rows
