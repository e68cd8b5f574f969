"""Grids, sampled bundle sections and Cauchy data.

The grid covers the full chart with uniform spacing in x and t; the time
step is tied to the spatial spacing by a CFL number against the maximal
light speed.  Cauchy hypersurfaces snap to grid time levels.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from . import expr as _expr
from .expr import Bin, Call, Num, Var, smooth_step  # noqa: F401  (smooth_step is re-exported)
from .geometry import CausalShadow, Chart1p1, ChartDomainError, DiagonalMetric

SUPPORT_EPS = 1e-14
BOUNDARY_MARGIN_NODES = 8


class CFLError(ValueError):
    """Time step violates the CFL bound."""


class MarginError(ValueError):
    """Support or source box too close to the chart boundary."""


@dataclass(frozen=True)
class Grid1p1:
    chart: Chart1p1
    xs: np.ndarray
    ts: np.ndarray
    dx: float
    dt: float
    cfl: float

    @property
    def nx(self) -> int:
        return len(self.xs)

    @property
    def nt(self) -> int:
        return len(self.ts)

    @property
    def periodic(self) -> bool:
        return self.chart.topology == "circle"

    def level_of(self, t: float) -> int:
        """Index of the time level nearest t."""
        if t < self.ts[0] - self.dt or t > self.ts[-1] + self.dt:
            raise ChartDomainError(f"time {t} outside grid range")
        return int(np.argmin(np.abs(self.ts - t)))

    def check_cfl(self, c_max: float) -> None:
        if self.dt * c_max > self.dx * (1.0 + 1e-12):
            raise CFLError(
                f"dt={self.dt} exceeds dx/c_max={self.dx / c_max}; reduce cfl"
            )


def build_grid(chart: Chart1p1, metric: DiagonalMetric, nx: int, cfl: float = 0.4) -> Grid1p1:
    """Uniform grid over the chart; dt = cfl * dx / max(alpha/beta)."""
    if nx < 8:
        raise ValueError("nx too small for the spatial stencil")
    if not 0 < cfl <= 1.0:
        raise ValueError("cfl must be in (0, 1]")
    if chart.topology == "circle":
        dx = chart.period / nx
        xs = chart.x_min + dx * np.arange(nx)
    else:
        xs = np.linspace(chart.x_min, chart.x_max, nx)
        dx = float(xs[1] - xs[0])
    c_max = metric.max_light_speed()
    dt_target = cfl * dx / c_max
    span = chart.t_max - chart.t_min
    nt = int(np.ceil(span / dt_target)) + 1
    dt = span / (nt - 1)
    ts = chart.t_min + dt * np.arange(nt)
    return Grid1p1(chart, xs, ts, dx, dt, cfl)


# ---------------------------------------------------------------------------
# finite differences (2nd order centered; one-sided at line edges)
#
# The stencils run on the float64 view of complex values, so that real and
# imaginary parts go through the same real operations, and scale by the
# reciprocal of the spacing: numpy divides a complex number by a real one
# as a product with its reciprocal, so the values equal those of the
# complex formulas.  Real values are divided by the spacing.

# the first-derivative edge rows as (c1 e0 + c2 e1) - c3 e2 over the pair
# (left, right): -3 v0 + 4 v1 - v2 and its mirror 3 v-1 - 4 v-2 + v-3
_EDGE_SIGNS = tuple(np.array(c, dtype=float) for c in ((-3, 3), (4, -4), (1, -1)))


@functools.lru_cache(maxsize=64)
def _plan(ndim: int, axis: int, n: int) -> tuple:
    """Index tuples of a stencil along one axis of n rows: the interior's
    reads one row below, at and above each interior row; the edge row pairs
    (i, n - 1 - i) for i < 4, each one strided slice while the two rows are
    distinct and in order (always so for i = 0, the pair written); on a
    circle the rows above and below the edge pair, wrapped around; and
    _EDGE_SIGNS laid along the axis."""

    def at(rows):
        return (rows,) if axis == 0 else (Ellipsis, rows, slice(None))

    def pair(i):
        step = n - 1 - 2 * i
        return at(slice(i, n - i, step) if step > 0 else np.array([i, n - 1 - i]))

    return (
        at(slice(0, n - 2)), at(slice(1, n - 1)), at(slice(2, n)),
        tuple(pair(i) for i in range(4)),
        at(slice(1, None, -1)), at(slice(n - 1, n - 3, -1)),
        tuple(np.reshape(c, (2,) + (1,) * (ndim - 1 - axis % ndim)) for c in _EDGE_SIGNS),
    )


def _stencil(values: np.ndarray, h: float, axis: int, order: int, periodic: bool = False) -> np.ndarray:
    """The order-1 or order-2 central difference along axis with spacing h:
    one-sided at the first and last rows, or wrapped around if periodic."""
    if values.ndim == 1:
        return _stencil(values[:, None], h, axis, order, periodic)[:, 0]
    v = values
    out = np.empty(v.shape, v.dtype)
    if v.dtype == np.complex128:
        if v.strides[-1] != v.itemsize:
            v = np.ascontiguousarray(v)
        w, o = v.view(np.float64), out.view(np.float64)
        scale, by = np.multiply, 1.0 / h
    else:
        w, o = v, out
        scale, by = np.true_divide, h
    below, centre, above, (p0, p1, p2, p3), wrapped_above, wrapped_below, signs = _plan(v.ndim, axis, v.shape[axis])
    edge, inner = o[p0], o[centre]
    if order == 1:
        np.subtract(w[above], w[below], out=inner)
        if periodic:
            np.subtract(w[wrapped_above], w[wrapped_below], out=edge)
        else:
            c1, c2, c3 = signs
            np.multiply(c1, w[p0], out=edge)
            edge += c2 * w[p1]
            edge -= c3 * w[p2]
    else:
        np.multiply(w[centre], 2.0, out=inner)
        np.subtract(w[above], inner, out=inner)
        inner += w[below]
        np.multiply(w[p0], 2.0, out=edge)
        if periodic:
            np.subtract(w[wrapped_above], edge, out=edge)
            edge += w[wrapped_below]
        else:
            edge -= 5.0 * w[p1]
            edge += 4.0 * w[p2]
            edge -= w[p3]
    scale(o, by, out=o)
    return out


def d_x(values: np.ndarray, grid: Grid1p1) -> np.ndarray:
    """First x-derivative along axis -2 of (..., nx, k) arrays."""
    return _stencil(values, 2 * grid.dx, -2, 1, grid.periodic)


def d_xx(values: np.ndarray, grid: Grid1p1) -> np.ndarray:
    """Second x-derivative along axis -2."""
    return _stencil(values, grid.dx**2, -2, 2, grid.periodic)


def d_t(values: np.ndarray, grid: Grid1p1) -> np.ndarray:
    """First t-derivative along axis 0 of (nt, nx, k) arrays."""
    return _stencil(values, 2 * grid.dt, 0, 1)


def d_tt(values: np.ndarray, grid: Grid1p1) -> np.ndarray:
    return _stencil(values, grid.dt**2, 0, 2)


# ---------------------------------------------------------------------------
# sections and Cauchy data

@dataclass
class GridSection:
    """A sampled section of the rank-k bundle: values[j, i] is the complex
    k-vector at time level j, node i."""

    grid: Grid1p1
    values: np.ndarray  # (nt, nx, k) complex

    @property
    def k(self) -> int:
        return self.values.shape[2]

    def linf(self) -> float:
        return float(np.max(np.abs(self.values)))

    @classmethod
    def zeros(cls, grid: Grid1p1, k: int) -> "GridSection":
        return cls(grid, np.zeros((grid.nt, grid.nx, k), dtype=complex))


@dataclass
class CauchyData:
    """Compactly supported data on the hypersurface {t = t0} (snapped to a
    grid time level)."""

    grid: Grid1p1
    t0: float
    values: np.ndarray  # (nx, k) complex
    support: Tuple[float, float]

    @property
    def k(self) -> int:
        return self.values.shape[1]

    @property
    def level(self) -> int:
        return self.grid.level_of(self.t0)

    def linf(self) -> float:
        return float(np.max(np.abs(self.values)))

    def validate_support(self) -> None:
        mask = (self.grid.xs < self.support[0]) | (self.grid.xs > self.support[1])
        if np.any(np.abs(self.values[mask]) > SUPPORT_EPS):
            raise ValueError("data does not vanish outside its declared support")


def window_expr(var: str, center: float, halfwidth: float, steepness: float) -> "_expr.ExprAst":
    """Smooth compactly supported plateau in the variable var, as a folded
    expression: identically 1 on [center - halfwidth, center + halfwidth],
    identically 0 outside the transition band of width 1/steepness on
    either side."""
    if steepness <= 0:
        raise ValueError("steepness must be positive")
    tau, (lo, hi) = Num(1.0 / steepness), window_support(center, halfwidth, steepness)
    rise, fall = (Call("step", Bin("/", u, tau)) for u in (Bin("-", Var(var), Num(lo)), Bin("-", Num(hi), Var(var))))
    return _expr.simplify(Bin("*", rise, fall))


def plateau_window(x, center: float, halfwidth: float, steepness: float) -> np.ndarray:
    """window_expr in x, evaluated at the points x."""
    return _expr.evaluate(window_expr("x", center, halfwidth, steepness), 0.0, np.asarray(x, dtype=float))


def window_support(center: float, halfwidth: float, steepness: float) -> Tuple[float, float]:
    tau = 1.0 / steepness
    return (center - halfwidth - tau, center + halfwidth + tau)


def make_cauchy_data(
    grid: Grid1p1,
    components: Sequence[Union[str, "_expr.ExprAst"]],
    t0: float,
    center: float = 0.0,
    halfwidth: float = 0.05,
    steepness: float = 2.5,
) -> CauchyData:
    """Sample the given component expressions at t0, multiplied by the
    smooth plateau window.  Hard-edged data cannot arise: the window is
    smooth by construction."""
    j0 = grid.level_of(t0)
    t0s = float(grid.ts[j0])
    w = plateau_window(grid.xs, center, halfwidth, steepness)
    k = len(components)
    values = np.zeros((grid.nx, k), dtype=complex)
    for c, comp in enumerate(components):
        values[:, c] = np.broadcast_to(
            np.asarray(_expr.evaluate(_expr.as_ast(comp), t0s, grid.xs), dtype=complex), (grid.nx,)
        ) * w
    support = window_support(center, halfwidth, steepness)
    data = CauchyData(grid, t0s, values, support)
    data.validate_support()
    return data


def check_causal_margin(
    metric: DiagonalMetric, grid: Grid1p1, support: Tuple[float, float], t0: float
) -> CausalShadow:
    """J(support) from t0 over the whole run, swept once per metric; on a
    line, validate up front that it stays clear of the x-boundary by at
    least BOUNDARY_MARGIN_NODES nodes."""
    shadow = metric.shadow(support, t0, "both", grid.dt)
    if grid.periodic:
        return shadow
    margin = BOUNDARY_MARGIN_NODES * grid.dx
    if shadow.lo.min() < grid.chart.x_min + margin or shadow.hi.max() > grid.chart.x_max - margin:
        raise MarginError(
            "causal shadow of the data support reaches within "
            f"{BOUNDARY_MARGIN_NODES} nodes of the chart boundary"
        )
    return shadow


def check_temporal_margin(grid: Grid1p1, t_support: Tuple[float, float]) -> None:
    """Validate that a source's time support stays at least
    BOUNDARY_MARGIN_NODES levels clear of the grid's first and last."""
    margin = BOUNDARY_MARGIN_NODES * grid.dt
    if t_support[0] < grid.ts[0] + margin or t_support[1] > grid.ts[-1] - margin:
        raise MarginError(
            f"source time window {t_support} reaches within "
            f"{BOUNDARY_MARGIN_NODES} levels of the temporal boundary"
        )
