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

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import expr as _expr
from .expr import Bin, Neg, Num
from .geometry import DiagonalMetric
from .grids import Grid1p1, GridSection, d_t, d_tt, d_x, d_xx


class RankMismatchError(ValueError):
    pass


class UnsupportedFeatureError(ValueError):
    pass


class StencilError(ValueError):
    pass


# ---------------------------------------------------------------------------
# matrix-valued coefficient fields

def _as_ast(e) -> "_expr.ExprAst":
    """A folded AST from an expression string, a number or an AST."""
    if isinstance(e, (str, int, float, complex, np.number)):
        e = _expr.parse(e) if isinstance(e, str) else Num(complex(e))
    return _expr.simplify(e)


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
        self.t_dependent = any(_expr.uses_var(e, "t") for row in self.entries for e in row)

    @property
    def is_constant(self) -> bool:
        return self.constant is not None

    @property
    def is_zero(self) -> bool:
        return self.is_constant and not self.constant.any()

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

    def eval(self, t: float, xs: np.ndarray) -> np.ndarray:
        """Values on a row of nodes: shape (len(xs), k, k)."""
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
    its nonzero entries as (i, j, value at t on xs) triples."""
    nonzero = [None if f.is_constant else f.nonzero() for f in fields]
    if all(entries is None for entries in nonzero):  # constant fields need no tape
        return lambda t: [f.constant for f in fields]
    tape = _expr.Tape([e for entries in nonzero if entries for _, _, e in entries], xs)

    def at(t):
        vals = iter(tape(t))
        return [
            f.constant if entries is None else [(i, j, next(vals)) for i, j, _ in entries]
            for f, entries in zip(fields, nonzero)
        ]

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
    """P Phi = A^t (d_t + omega_t) Phi + A^x (d_x + omega_x) Phi + B Phi."""

    k: int
    a_t: MatrixField
    a_x: MatrixField
    b: MatrixField
    omega_t: Optional[MatrixField] = None
    omega_x: Optional[MatrixField] = None

    @classmethod
    def build(cls, a_t, a_x, b, omega_t=None, omega_x=None) -> "FirstOrderOperator":
        fields = [None if f is None else as_matrix_field(f) for f in (a_t, a_x, b, omega_t, omega_x)]
        return cls(fields[0].k, *fields)

    @property
    def has_connection(self) -> bool:
        return self.omega_t is not None or self.omega_x is not None

    def effective_b(self) -> MatrixField:
        """Zeroth-order part in coordinate form, with connection folded in:
        B + A^t omega_t + A^x omega_x."""
        b = self.b
        if self.omega_t is not None:
            b = b + self.a_t @ self.omega_t
        if self.omega_x is not None:
            b = b + self.a_x @ self.omega_x
        return b


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

def principal_symbol_1(op: FirstOrderOperator, point: Tuple[float, float], xi: Tuple[float, float]) -> np.ndarray:
    """sigma_P(xi) = A^t xi_t + A^x xi_x; the connection does not enter."""
    t, x = point
    return op.a_t.at(t, x) * xi[0] + op.a_x.at(t, x) * xi[1]


def principal_symbol_2(op: SecondOrderOperator, point: Tuple[float, float], xi: Tuple[float, float]) -> np.ndarray:
    t, x = point
    return (
        op.c_tt.at(t, x) * xi[0] ** 2
        + 2.0 * op.c_tx.at(t, x) * xi[0] * xi[1]
        + op.c_xx.at(t, x) * xi[1] ** 2
    )


def compose(p: FirstOrderOperator, q: FirstOrderOperator) -> SecondOrderOperator:
    """Expand P(Q Phi) by the product rule into a second-order operator.

    Connection terms are folded into the zeroth-order coefficients first,
    so the expansion works on coordinate-form coefficients throughout.
    """
    if p.k != q.k:
        raise RankMismatchError(f"rank mismatch: {p.k} vs {q.k}")
    pat, pax, pb = p.a_t, p.a_x, p.effective_b()
    qat, qax, qb = q.a_t, q.a_x, q.effective_b()

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
    eye = np.eye(op.k)
    worst = 0.0
    worst_pt = None
    worst_xi = None
    for pt in sample_points:
        for xi in POLARIZATION_COVECTORS:
            dev = np.max(
                np.abs(principal_symbol_2(op, pt, xi) - metric.inverse_on_covector(pt, xi) * eye)
            )
            if dev > worst:
                worst, worst_pt, worst_xi = float(dev), pt, xi
    return HyperbolicityReport(worst < tol, worst, tol, worst_pt, worst_xi)


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


def symbol_invertibility(
    op: FirstOrderOperator, point: Tuple[float, float], xi: Tuple[float, float], tol: float = 1e-12
) -> InvertibilityReport:
    sigma = principal_symbol_1(op, point, xi)
    det = np.linalg.det(sigma)
    abs_det = float(np.abs(det))
    scale = float(np.max(np.abs(sigma))) if np.max(np.abs(sigma)) > 0 else 1.0
    invertible = abs_det > tol * scale**op.k
    cond = float(np.linalg.cond(sigma)) if invertible else np.inf
    return InvertibilityReport(invertible, abs_det, cond)


# ---------------------------------------------------------------------------
# formal adjoint and the bilinear pairing

def formal_adjoint(p: FirstOrderOperator, metric: DiagonalMetric) -> FirstOrderOperator:
    """Adjoint against the bilinear pairing int psi(phi) rho dt dx with
    rho = alpha * beta: coefficients -A^T and B^T - (1/rho) d_mu(rho A^mu,T).

    The pairing is bilinear (dual bundle, no complex conjugation), so
    matrices transpose without conjugation.
    """
    if p.has_connection:
        raise UnsupportedFeatureError("formal_adjoint does not support connection matrices")
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
        fields = (op.a_t, op.a_x, op.effective_b())
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
