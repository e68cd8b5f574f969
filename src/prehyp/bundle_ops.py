"""First- and second-order matrix-coefficient operators on the trivial
rank-k bundle: principal symbols, composition, formal adjoints, the
hyperbolicity predicates, the bilinear dual pairing and discrete operator
application.

Coefficient fields are symbolic: a k x k matrix of expression ASTs.  The
derivatives that composition and adjoints need are exact (expr.diff), and
constant folding prunes the entries that vanish identically.  Solvers and
apply_operator compile the nonzero entries of an operator once into an
evaluation tape (coefficient_tape).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import expr as _expr
from .expr import Bin, Neg, Num
from .geometry import DiagonalMetric
from .grids import Grid1p1, GridSection, d_t, d_tt, d_x, d_xx


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

    @property
    def diagonal(self) -> Optional["_expr.ExprAst"]:
        """s when the field is s Id for one expression s, else None."""
        s = self.entries[0][0]
        if all(e == (s if i == j else _expr.ZERO) for i, row in enumerate(self.entries) for j, e in enumerate(row)):
            return s
        return None

    @property
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
    the nodes xs.  Returns at(t) giving, per field, its constant matrix or
    its nonzero entries as (i, j, value at t on xs) triples; at.block is the
    tape's block call, which evaluates a stack of stage times at once for
    later at(t) calls, or None when all fields are constant."""
    nonzero = [None if f.is_constant else f.nonzero() for f in fields]
    if all(entries is None for entries in nonzero):  # constant fields need no tape
        def at(t):
            return [f.constant for f in fields]

        at.block = None
        return at
    tape = _expr.Tape([e for entries in nonzero if entries for _, _, e in entries], xs)

    def at(t):
        vals = iter(tape(t))
        return [
            f.constant if entries is None else [(i, j, next(vals)) for i, j, _ in entries]
            for f, entries in zip(fields, nonzero)
        ]

    at.block = tape.block
    return at


def contract(coeff, vec: np.ndarray) -> np.ndarray:
    """coeff @ vec over the last axis, for one field as coefficient_tape
    returns it; vec is (..., k)."""
    if isinstance(coeff, np.ndarray):
        return vec @ coeff.T
    out = np.zeros(vec.shape, dtype=complex)
    for i, j, val in coeff:
        out[..., i] += val * vec[..., j]
    return out


def as_matrix_field(value) -> MatrixField:
    """A field from a MatrixField, a numeric matrix or a matrix of expressions."""
    return value if isinstance(value, MatrixField) else MatrixField.from_exprs(value)


# ---------------------------------------------------------------------------
# operators

@dataclass
class FirstOrderOperator:
    """P Phi = A^t d_t Phi + A^x d_x Phi + B Phi.  B is the whole order-0
    part: in a chart a bundle connection is an order-0 term,
    A^mu (d_mu + omega_mu) = A^mu d_mu + A^mu omega_mu, so it enters B."""

    k: int
    a_t: MatrixField
    a_x: MatrixField
    b: MatrixField

    @classmethod
    def build(cls, a_t, a_x, b) -> "FirstOrderOperator":
        fields = [as_matrix_field(f) for f in (a_t, a_x, b)]
        return cls(fields[0].k, *fields)


@dataclass
class SecondOrderOperator:
    """L Phi = C^tt d_t^2 Phi + 2 C^tx d_t d_x Phi + C^xx d_x^2 Phi
    + D^t d_t Phi + D^x d_x Phi + E Phi."""

    k: int
    c_tt: MatrixField
    c_tx: MatrixField
    c_xx: MatrixField
    d_t: MatrixField
    d_x: MatrixField
    e: MatrixField

    @property
    def is_constant(self) -> bool:
        return all(
            f.is_constant for f in (self.c_tt, self.c_tx, self.c_xx, self.d_t, self.d_x, self.e)
        )


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


def compose(p: FirstOrderOperator, q: FirstOrderOperator) -> SecondOrderOperator:
    """Expand P(Q Phi) by the product rule into a second-order operator."""
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


def default_symbol_tol(constant_coefficients: bool, coeff_scale: float = 1.0) -> float:
    if constant_coefficients:
        return 1e-12 * (1.0 + coeff_scale)
    return 1e-8


def metric_sample_points(metric: DiagonalMetric, n_t: int = 3, n_x: int = 9) -> List[Tuple[float, float]]:
    chart = metric.chart
    ts = np.linspace(chart.t_min, chart.t_max, n_t)
    xs = np.linspace(chart.x_min, chart.x_max, n_x)
    return [(float(t), float(x)) for t in ts for x in xs]


def is_normally_hyperbolic(
    op: SecondOrderOperator,
    metric: DiagonalMetric,
    sample_points: Optional[Sequence[Tuple[float, float]]] = None,
    tol: Optional[float] = None,
) -> HyperbolicityReport:
    """Check sigma_L(xi) == g(xi, xi) Id at the polarization covector set.

    Three covectors determine a quadratic form in two dimensions, so the
    check at {(1,0), (0,1), (1,1)} is sufficient pointwise.
    """
    if sample_points is None:
        sample_points = metric_sample_points(metric)
    if not sample_points:
        raise ValueError("sample_points must be nonempty")
    if tol is None:
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


def is_complementary_pair(
    p: FirstOrderOperator,
    q: FirstOrderOperator,
    metric: DiagonalMetric,
    sample_points: Optional[Sequence[Tuple[float, float]]] = None,
    tol: Optional[float] = None,
) -> PairReport:
    """Check that both PQ and QP are normally hyperbolic."""
    pq = is_normally_hyperbolic(compose(p, q), metric, sample_points, tol)
    qp = is_normally_hyperbolic(compose(q, p), metric, sample_points, tol)
    return PairReport(pq.passed and qp.passed, pq, qp)


@dataclass
class InvertibilityReport:
    invertible: bool
    abs_det: float
    condition_estimate: float


def symbol_invertibility(op: FirstOrderOperator, point, xi, tol: float = 1e-12) -> InvertibilityReport:
    """Whether sigma_P(xi) is invertible, relative to its largest entry
    (its power by float_power, as in DiagonalMetric.inverse_on_covector).
    For (n, 2) arrays of points or covectors each field is an array of n."""
    sigma = principal_symbol_1(op, point, xi)
    abs_det = np.abs(np.linalg.det(sigma))
    peak = np.max(np.abs(sigma), axis=(-2, -1))
    scale = np.where(peak > 0, peak, 1.0)
    invertible = abs_det > tol * np.float_power(scale, op.k)
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
    matrices transpose without conjugation.
    """
    rho = _expr.simplify(Bin("*", metric.alpha_ast, metric.beta_ast))
    at_t = p.a_t.transpose()
    at_x = p.a_x.transpose()
    div_term = (at_t.scale(rho).d_dt() + at_x.scale(rho).d_dx()).scale(_bin("/", _expr.ONE, rho))
    return FirstOrderOperator(p.k, -at_t, -at_x, p.b.transpose() - div_term)


def pairing(psi: GridSection, phi: GridSection, metric: DiagonalMetric, grid: Optional[Grid1p1] = None) -> complex:
    """Bilinear spacetime pairing <psi, phi> = int sum_i psi_i phi_i rho,
    by trapezoidal quadrature over the chart."""
    grid = grid or phi.grid
    if psi.values.shape != phi.values.shape:
        raise ValueError("sections must share the grid and rank")
    tt = grid.ts[:, None]
    xx = grid.xs[None, :]
    rho = np.broadcast_to(np.asarray(metric.volume_density(tt, xx)), (grid.nt, grid.nx))
    density = np.einsum("tnc,tnc->tn", psi.values, phi.values) * rho
    if grid.periodic:
        inner_x = density.sum(axis=1) * grid.dx
    else:
        inner_x = np.trapezoid(density, dx=grid.dx, axis=1)
    return complex(np.trapezoid(inner_x, dx=grid.dt))


# ---------------------------------------------------------------------------
# discrete application

def apply_operator(op: Union[FirstOrderOperator, SecondOrderOperator], phi: GridSection) -> GridSection:
    """Discrete realization of the operator on a sampled section: centered
    2nd-order differences in t and x (one-sided at edges).  Coefficients
    that depend on t are evaluated on the whole (nt, nx) mesh at once."""
    grid = phi.grid
    if grid.nt < 4 or grid.nx < 4:
        raise StencilError("grid too small for the stencil")
    v = phi.values
    if isinstance(op, FirstOrderOperator):
        fields = (op.a_t, op.a_x, op.b)
    else:
        fields = (op.c_tt, op.c_tx.scale(2.0), op.c_xx, op.d_t, op.d_x, op.e)
    c = coefficient_tape(fields, grid.xs)(grid.ts[:, None])
    if isinstance(op, FirstOrderOperator):
        out = contract(c[0], d_t(v, grid)) + contract(c[1], d_x(v, grid)) + contract(c[2], v)
        return GridSection(grid, out)
    vt = d_t(v, grid)
    out = (
        contract(c[0], d_tt(v, grid))
        + contract(c[1], d_x(vt, grid))
        + contract(c[2], d_xx(v, grid))
        + contract(c[3], vt)
        + contract(c[4], d_x(v, grid))
        + contract(c[5], v)
    )
    return GridSection(grid, out)
