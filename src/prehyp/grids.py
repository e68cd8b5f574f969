"""Grids, sampled bundle sections and Cauchy data.

The grid covers the full chart with uniform spacing in x and t; the time
step is tied to the spatial spacing by a CFL number against the maximal
light speed.  Cauchy hypersurfaces snap to grid time levels.

A sampled section (GridSection) holds only the levels from its first one
on where it can be nonzero, and is 0 at the others: a march's output
over its span, or from its first forced step, a test section over its
time support, an operator's output over the stencil window of its input.
Its readers work on the levels it holds: squared_norm writes |a - b|
into a float array of the whole length, zero elsewhere, so that its sum
is the whole-mesh formula's, and level(j) and mesh() give a level or the
whole mesh with the zeros filled in.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from . import expr as _expr
from .expr import Bin, Call, Num, Var, smooth_step  # noqa: F401  (smooth_step is re-exported)
from .geometry import CausalShadow, Chart1p1, ChartDomainError, DiagonalMetric

SUPPORT_EPS = 1e-14
BOUNDARY_MARGIN_NODES = 8
# bytes of the levels a whole-mesh pass works on at a time (level_blocks):
# 32 levels of an nx 512, rank-2 complex section.  apply_operator(Q) at
# nx 512 took 7.6 / 6.7 / 6.7 / 6.6 / 8.0 ms in blocks of 8 / 16 / 32 /
# 64 / 128 levels on Minkowski and 12.8 ms on the whole mesh at once, and
# 10.6 / 9.1 / 9.5 / 9.3 / 11.2 and 17.2 ms on the README metric (fastest
# of 15 on a 2-core Xeon VM with 2 MiB of L2 per core): 32 levels is the
# middle of the plateau from 16 to 64
BLOCK_BYTES = 512 * 1024


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
# finite differences (2nd order centered; one-sided at line edges, wrapped
# around on a circle)
#
# The stencils run on the float64 view of complex values, so that real and
# imaginary parts go through the same real operations, and scale by the
# reciprocal of the spacing: numpy divides a complex number by a real one
# as a product with its reciprocal, so the values equal those of the
# complex formulas.  Real values are divided by the spacing.

# the edge rows of the pair (left, right) = (0, n - 1) as weighted sums of
# rows, per row of a stencil's plan the row it reads on either side and its
# weights.  One-sided on a line, the rows i and n - 1 - i, i = 0, 1, ...:
# -3 v0 + 4 v1 - v2 and its mirror 3 v-1 - 4 v-2 + v-3 for the first
# derivative, 2 v0 - 5 v1 + 4 v2 - v3 on either side for the second.
# Wrapped on a circle: v1 - v-1 and v0 - v-2, then (v1 - 2 v0) + v-1 and
# (v0 - 2 v-1) + v-2, with v-i the row n - i.
_EDGE_WEIGHTS = {1: ((-3, 3), (4, -4), (-1, 1)), 2: ((2, 2), (-5, -5), (4, 4), (-1, -1))}
_WRAPPED_WEIGHTS = {1: ((1, 1), (-1, -1)), 2: ((1, 1), (-2, -2), (1, 1))}


@functools.lru_cache(maxsize=64)
def _plan(ndim: int, axis: int, n: int, order: int, periodic: bool) -> tuple:
    """Indices of a stencil's edge rows along one axis of n rows: the edge
    pair (0, n - 1) as one strided slice, the rows each edge row is made
    of as an (m, 2) index array, one row per term, and their weights laid
    along the axis; one-sided on a line, wrapped around on a circle."""
    axis %= ndim
    if periodic:
        rows = np.array([(1, 0), (n - 1, n - 2)] if order == 1 else [(1, 0), (0, n - 1), (n - 1, n - 2)])
        table = _WRAPPED_WEIGHTS[order]
    else:
        rows = np.array([(i, n - 1 - i) for i in range(order + 2)])
        table = _EDGE_WEIGHTS[order]
    weights = np.reshape(np.array(table, dtype=float), rows.shape + (1,) * (ndim - 1 - axis))
    return (slice(None),) * axis + (slice(0, n, n - 1),), rows, weights


def _stencil(values: np.ndarray, out: np.ndarray, h: float, axis: int, order: int, periodic: bool = False) -> Callable:
    """run() writing the order-1 or order-2 central difference of values
    along axis with spacing h into out: one-sided at the first and last
    rows, or wrapped around if periodic.  values and out are C-contiguous,
    of one shape and dtype.  The interior is one pass over the flat memory;
    the rows of that pass that straddle two rows of a leading axis are edge
    rows, which run() writes after it.  Both edge rows, on a line or on a
    circle, take three calls: the rows they are made of (_plan) are
    gathered into one buffer, times their weights, and summed along the
    axis in index order from -0.0, the additive identity that keeps the
    sign of a zero, so each equals the formula evaluated left to right
    (a - b is a + (-b), and -e is (-1) e).  Every view and buffer is made
    here, so run() can be called again once values have changed in
    place."""
    if values.ndim == 1:
        return _stencil(values[:, None], out[:, None], h, axis, order, periodic)
    if values.dtype == np.complex128:
        w, o = values.view(np.float64), out.view(np.float64)
        scale, by = np.multiply, 1.0 / h
    else:
        w, o = values, out
        scale, by = np.true_divide, h
    n = values.shape[axis]
    axis %= w.ndim
    row = math.prod(w.shape[axis + 1:])
    flat_w, flat_o = w.reshape(-1), o.reshape(-1)
    below, centre, above = flat_w[:-2 * row], flat_w[row:-row], flat_w[2 * row:]
    inner = flat_o[row:-row]
    pair, rows, weights = _plan(w.ndim, axis, n, order, periodic)
    if not periodic and n < len(rows):
        raise ValueError(f"a one-sided order-{order} stencil needs {len(rows)} rows, not {n}")
    part = functools.partial
    if order == 1:
        ops = [part(np.subtract, above, below, inner)]
    else:
        ops = [
            part(np.multiply, centre, 2.0, inner),
            part(np.subtract, above, inner, inner),
            part(np.add, inner, below, inner),
        ]
    ops += _edge_rows(w, o, axis, pair, rows, weights)
    ops.append(part(scale, flat_o, by, flat_o))
    return _sequence(ops)


def _edge_rows(w: np.ndarray, o: np.ndarray, axis: int, pair: tuple, rows: np.ndarray, weights: np.ndarray) -> list:
    """The three ops writing both edge rows of o, the pair, as weighted
    sums of the rows of w along axis: gathered into one buffer, times the
    weights, summed in index order from -0.0."""
    part = functools.partial
    gathered = np.empty(w.shape[:axis] + rows.shape + w.shape[axis + 1:], dtype=w.dtype)
    # take's mode "raise" would buffer its output; the rows are in range
    return [
        part(w.take, rows, axis, gathered, "clip"),
        part(np.multiply, gathered, weights, gathered),
        part(np.add.reduce, gathered, axis, None, o[pair], False, -0.0),
    ]


def _sequence(ops: list) -> Callable:
    """run() calling the ops in order."""

    def run() -> None:
        for op in ops:
            op()

    return run


def three_point_weights(c, d, e, grid: Grid1p1) -> Tuple[np.ndarray, np.ndarray]:
    """The weights of u -> c d_xx u + d d_x u + e u, c, d and e real
    numbers or arrays over the nodes, as one three-point operator
    a_i u_{i+1} + b_i u_i + e_i u_{i-1} (_three_point): the rows (a, b, e)
    of a (3, nx) array, a = c/dx^2 + d/(2 dx), b = e - 2 c/dx^2 and
    e = c/dx^2 - d/(2 dx), the centred stencils of d_xx and d_x; and the
    edge rows' weights, per row of an order-2 stencil's plan (_plan) and
    edge, an (m, 2) array.  On a line those are c times d_xx's one-sided
    weights plus d times d_x's plus e on the edge node, on a circle the
    rows a, b, e at the nodes 0 and n - 1.  In exact arithmetic the
    operator is the stencils' sum."""
    n = grid.nx
    c, d, e = (np.broadcast_to(v, (n,)) for v in (c, d, e))
    cc, dd = c / grid.dx**2, d / (2 * grid.dx)
    weights = np.stack([cc + dd, e - 2.0 * cc, cc - dd])
    ends = [0, n - 1]
    if grid.periodic:
        return weights, weights[:, ends]
    second, first, own = (np.array(table, dtype=float) for table in (
        _EDGE_WEIGHTS[2], _EDGE_WEIGHTS[1] + ((0, 0),), ((1, 1), (0, 0), (0, 0), (0, 0)),
    ))
    return weights, (cc[ends] * second + dd[ends] * first) + e[ends] * own


def _three_point(values: np.ndarray, out: np.ndarray, weights: np.ndarray, edges: np.ndarray, periodic: bool) -> Callable:
    """run() writing a_i v_{i+1} + b_i v_i + e_i v_{i-1} along axis -2 of
    the complex values into out, C-contiguous arrays of one shape, in
    eight calls on their float64 views.  weights holds (a, b, e) laid out
    as that view, each node's weight over its row, and edges the edge
    rows' weights laid out as the rows they are made of, gathered as an
    order-2 stencil's (_plan, three_point_weights).  The interior is one
    pass over the flat memory, (a v+ + b v) + e v-, whose rows that
    straddle two rows of a leading axis are edge rows, written after it
    by _stencil's gather-weight-sum.  Every view and buffer is made here,
    so run() can be called again once values have changed in place."""
    w, o = values.view(np.float64), out.view(np.float64)
    row = w.shape[-1]
    flat_w, flat_o = w.reshape(-1), o.reshape(-1)
    below, centre, above = flat_w[:-2 * row], flat_w[row:-row], flat_w[2 * row:]
    inner = flat_o[row:-row]
    a, b, e = (x.reshape(-1)[row:-row] for x in weights)
    scratch = np.empty(inner.shape)
    part = functools.partial
    ops = [
        part(np.multiply, above, a, inner), part(np.multiply, centre, b, scratch), part(np.add, inner, scratch, inner),
        part(np.multiply, below, e, scratch), part(np.add, inner, scratch, inner),
    ]
    pair, rows, _ = _plan(w.ndim, -2, w.shape[-2], 2, periodic)
    return _sequence(ops + _edge_rows(w, o, w.ndim - 2, pair, rows, edges))


def _derivative(
    values: np.ndarray, h: float, axis: int, order: int, periodic: bool = False, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """_stencil's difference of values, run once into out, a new array by
    default."""
    values = np.ascontiguousarray(values)
    if out is None:
        out = np.empty(values.shape, values.dtype)
    _stencil(values, out, h, axis, order, periodic)()
    return out


def d_x(values: np.ndarray, grid: Grid1p1, out: Optional[np.ndarray] = None) -> np.ndarray:
    """First x-derivative along axis -2 of (..., nx, k) arrays, written
    into out if given (C-contiguous, of the shape and dtype of values).
    It acts on each level alone, so a block of levels gets the rows of
    the whole mesh."""
    return _derivative(values, 2 * grid.dx, -2, 1, grid.periodic, out)


def d_xx(values: np.ndarray, grid: Grid1p1, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Second x-derivative along axis -2, written into out as d_x."""
    return _derivative(values, grid.dx**2, -2, 2, grid.periodic, out)


def d_t(values: np.ndarray, grid: Grid1p1, out: Optional[np.ndarray] = None) -> np.ndarray:
    """First t-derivative along axis 0 of (nt, nx, k) arrays, written into
    out as d_x.  Run on the window level_blocks gives a block, its rows
    for the block's levels are those of the whole mesh."""
    return _derivative(values, 2 * grid.dt, 0, 1, False, out)


def d_tt(values: np.ndarray, grid: Grid1p1, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Second t-derivative along axis 0, written into out and run on a
    block's window as d_t."""
    return _derivative(values, grid.dt**2, 0, 2, False, out)


# ---------------------------------------------------------------------------
# passes over a whole mesh, a block of levels at a time

def level_blocks(
    nt: int, level_bytes: int, start: int = 0, stop: Optional[int] = None
) -> Iterator[Tuple[int, int, int, int]]:
    """The levels start..stop-1 of a mesh of nt levels (all of them by
    default) in blocks [a, b), in order, each as (a, b, lo, hi) with the
    window [lo, hi) of levels that the t-stencils of the rows a..b-1 read:
    a-1..b, widened to 4 levels where it has fewer, as many as the
    one-sided rows at the chart's ends read.  Run on the window, a
    t-stencil's rows a - lo .. b - lo - 1 are its rows a..b-1 on the whole
    mesh.  The blocks split the levels evenly, their lengths at most one
    apart, into as few as hold BLOCK_BYTES at level_bytes a level."""
    stop = nt if stop is None else stop
    levels = stop - start
    count = -(-levels // _most_levels(level_bytes))
    for i in range(count):
        a, b = start + levels * i // count, start + levels * (i + 1) // count
        lo = max(a - 1, 0)
        hi = min(max(b + 1, lo + 4), nt)
        yield a, b, max(min(lo, hi - 4), 0), hi


def block_levels(level_bytes: int, levels: int) -> int:
    """The levels of the longest block when level_blocks splits levels
    levels."""
    most = _most_levels(level_bytes)
    return -(-levels // -(-levels // most)) if levels > 0 else most


def _most_levels(level_bytes: int) -> int:
    """The levels that BLOCK_BYTES holds at level_bytes a level, at least 1."""
    return max(BLOCK_BYTES // max(level_bytes, 1), 1)


def squared_norm(a, b=None, start: int = 0, stop: Optional[int] = None) -> Tuple[float, float]:
    """(sum |a - b|^2, max |a - b|) over the levels start..stop-1 (all of
    them by default) of a and b (of a alone without b): sections of one
    grid and rank, 0 on the levels they do not hold (GridSection), or
    arrays of one shape with every level along axis 0.  |a - b| is written
    block by block of the levels either holds into one float array of the
    levels' length, zero at the others, each block's max taken and the
    block squared in place, so no complex difference of the whole size is
    made; where one of them is 0, |a - b| is the other's modulus, as the
    difference would give it.  One np.sum over that array adds the squares
    in the order np.sum(np.abs(a - b) ** 2) over the whole levels does, so
    both figures equal those of the whole-array formulas."""
    held = [_held(x) for x in (a, b) if x is not None]
    if stop is None:
        stop = a.grid.nt if isinstance(a, GridSection) else len(a)
    shape = held[0][0].shape[1:]
    level = held[0][0].itemsize * math.prod(shape)
    sq = np.zeros((stop - start,) + shape)
    ranges = [(min(max(first, start), stop), min(max(first + len(v), start), stop)) for v, first in held]
    scratch = None
    if len(held) == 2:
        scratch = np.empty((min(_most_levels(level), stop - start),) + shape, np.result_type(held[0][0], held[1][0]))
    cuts = sorted({start, stop, *(e for r in ranges for e in r)})
    peaks = []
    for lo, hi in zip(cuts, cuts[1:]):
        # the arrays holding every level of [lo, hi), in the order (a, b)
        inside = [(v, first) for (v, first), (r0, r1) in zip(held, ranges) if r0 <= lo and hi <= r1]
        for p, q, _, _ in level_blocks(stop, level, lo, hi) if inside else ():
            rows = [v[p - first:q - first] for v, first in inside]
            r = rows[0] if len(rows) == 1 else np.subtract(*rows, scratch[:q - p])
            block = np.abs(r, sq[p - start:q - start])
            peaks.append(np.max(block))
            np.square(block, block)
    return float(np.sum(sq)), float(np.max(peaks, initial=0.0))


def _held(x) -> Tuple[np.ndarray, int]:
    """(values, first level) of a section, or of an array holding every
    level."""
    return (x.values, x.first) if isinstance(x, GridSection) else (x, 0)


# ---------------------------------------------------------------------------
# sections and Cauchy data

@dataclass
class GridSection:
    """A sampled section of the rank-k bundle, held on the levels where it
    can be nonzero: values[j - first, i] is the complex k-vector at time
    level j, node i, for the levels first <= j < stop, and the section is 0
    at every other level.  A section made from a whole (nt, nx, k) mesh
    holds every level."""

    grid: Grid1p1
    values: np.ndarray  # (levels held, nx, k) complex
    first: int = 0

    @property
    def stop(self) -> int:
        """One past the last level held."""
        return self.first + len(self.values)

    @property
    def k(self) -> int:
        return self.values.shape[2]

    def level(self, j: int) -> np.ndarray:
        """The (nx, k) values at level j: a view of values where it is
        held, else a new array of zeros."""
        if self.first <= j < self.stop:
            return self.values[j - self.first]
        return np.zeros(self.values.shape[1:], self.values.dtype)

    def mesh(self) -> np.ndarray:
        """The section on the whole (nt, nx, k) mesh, 0 on the levels not
        held: a new array."""
        out = np.zeros((self.grid.nt,) + self.values.shape[1:], self.values.dtype)
        out[self.first:self.stop] = self.values
        return out

    def linf(self) -> float:
        return float(np.max(np.abs(self.values), initial=0.0))

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
