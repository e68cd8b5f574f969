"""Grids, sampled bundle sections and Cauchy data.

The grid covers the full chart with uniform spacing in x and t; the time
step is tied to the spatial spacing by a CFL number against the maximal
light speed.  Cauchy hypersurfaces snap to grid time levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from . import expr as _expr
from .geometry import CausalShadow, Chart1p1, ChartDomainError, DiagonalMetric, causal_shadow

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

def d_x(values: np.ndarray, grid: Grid1p1) -> np.ndarray:
    """First x-derivative along axis -2 of (..., nx, k) arrays."""
    v = values
    dx = grid.dx
    if grid.periodic:
        return (np.roll(v, -1, axis=-2) - np.roll(v, 1, axis=-2)) / (2 * dx)
    out = np.empty_like(v)
    out[..., 1:-1, :] = (v[..., 2:, :] - v[..., :-2, :]) / (2 * dx)
    out[..., 0, :] = (-3 * v[..., 0, :] + 4 * v[..., 1, :] - v[..., 2, :]) / (2 * dx)
    out[..., -1, :] = (3 * v[..., -1, :] - 4 * v[..., -2, :] + v[..., -3, :]) / (2 * dx)
    return out


def d_xx(values: np.ndarray, grid: Grid1p1) -> np.ndarray:
    """Second x-derivative along axis -2."""
    v = values
    dx2 = grid.dx**2
    if grid.periodic:
        return (np.roll(v, -1, axis=-2) - 2 * v + np.roll(v, 1, axis=-2)) / dx2
    out = np.empty_like(v)
    out[..., 1:-1, :] = (v[..., 2:, :] - 2 * v[..., 1:-1, :] + v[..., :-2, :]) / dx2
    out[..., 0, :] = (2 * v[..., 0, :] - 5 * v[..., 1, :] + 4 * v[..., 2, :] - v[..., 3, :]) / dx2
    out[..., -1, :] = (2 * v[..., -1, :] - 5 * v[..., -2, :] + 4 * v[..., -3, :] - v[..., -4, :]) / dx2
    return out


def d_t(values: np.ndarray, grid: Grid1p1) -> np.ndarray:
    """First t-derivative along axis 0 of (nt, nx, k) arrays."""
    v = values
    dt = grid.dt
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2 * dt)
    out[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * dt)
    out[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * dt)
    return out


def d_tt(values: np.ndarray, grid: Grid1p1) -> np.ndarray:
    v = values
    dt2 = grid.dt**2
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / dt2
    out[0] = (2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]) / dt2
    out[-1] = (2 * v[-1] - 5 * v[-2] + 4 * v[-3] - v[-4]) / dt2
    return out


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


def smooth_step(u: np.ndarray) -> np.ndarray:
    """C-infinity step: exactly 0 for u <= 0 and 1 for u >= 1, realized as a
    tanh mollifier with rational argument."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    out[u >= 1.0] = 1.0
    m = (u > 0.0) & (u < 1.0)
    um = u[m]
    out[m] = 0.5 * (1.0 + np.tanh(0.5 * (1.0 / (1.0 - um) - 1.0 / um)))
    return out


def plateau_window(x, center: float, halfwidth: float, steepness: float) -> np.ndarray:
    """Smooth compactly supported plateau: identically 1 on
    [center - halfwidth, center + halfwidth], identically 0 outside the
    transition band of width 1/steepness on either side."""
    if steepness <= 0:
        raise ValueError("steepness must be positive")
    tau = 1.0 / steepness
    x = np.asarray(x, dtype=float)
    lo = center - halfwidth - tau
    hi = center + halfwidth + tau
    return smooth_step((x - lo) / tau) * smooth_step((hi - x) / tau)


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
        ast = _expr.parse(comp) if isinstance(comp, str) else comp
        values[:, c] = np.broadcast_to(
            np.asarray(_expr.evaluate(ast, t0s, grid.xs), dtype=complex), (grid.nx,)
        ) * w
    support = window_support(center, halfwidth, steepness)
    data = CauchyData(grid, t0s, values, support)
    data.validate_support()
    return data


def check_causal_margin(
    metric: DiagonalMetric, grid: Grid1p1, support: Tuple[float, float], t0: float
) -> CausalShadow:
    """Sweep J(support) from t0 over the whole run and return it; on a line,
    validate up front that it stays clear of the x-boundary by at least
    BOUNDARY_MARGIN_NODES nodes."""
    shadow = causal_shadow(metric, support, float(t0), "both", dt=grid.dt)
    if grid.periodic:
        return shadow
    margin = BOUNDARY_MARGIN_NODES * grid.dx
    for union in shadow.intervals:
        for lo, hi in union:
            if lo < grid.chart.x_min + margin or hi > grid.chart.x_max - margin:
                raise MarginError(
                    "causal shadow of the data support reaches within "
                    f"{BOUNDARY_MARGIN_NODES} nodes of the chart boundary"
                )
    return shadow
