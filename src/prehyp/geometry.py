"""Model spacetimes for the 1+1 setting.

A chart covers a coordinate rectangle [t_min, t_max] x [x_min, x_max] with
either line or circle spatial topology, carrying a diagonal Lorentzian
metric g = alpha(t,x)^2 dt^2 - beta(t,x)^2 dx^2 of signature (+,-).  Every
constant-t line is then a spacelike Cauchy hypersurface.  Causal futures
and pasts are computed by integrating the null characteristic ODE
dx/dt = +- alpha/beta and stored as per-time-level interval unions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import expr as _expr
from .expr import ExprAst

Interval = Tuple[float, float]


class ChartDomainError(ValueError):
    """A point lies outside the chart."""


class MetricPositivityError(ValueError):
    """alpha or beta fails to be strictly positive on the chart."""


@dataclass(frozen=True)
class Chart1p1:
    t_min: float
    t_max: float
    x_min: float
    x_max: float
    topology: str = "line"  # "line" or "circle"

    def __post_init__(self):
        if not self.t_min < self.t_max:
            raise ValueError("t_min must be < t_max")
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be < x_max")
        if self.topology not in ("line", "circle"):
            raise ValueError(f"unknown topology {self.topology!r}")

    @property
    def period(self) -> float:
        return self.x_max - self.x_min

    def contains(self, t, x):
        """Whether (t, x) lies on the chart; t and x may be arrays."""
        inside = (self.t_min <= t) & (t <= self.t_max)
        if self.topology == "circle":
            return inside
        return inside & (self.x_min <= x) & (x <= self.x_max)

    def require(self, t, x) -> None:
        """Raise ChartDomainError naming the first point off the chart."""
        t, x = np.broadcast_arrays(t, x)
        outside = ~self.contains(t, x)
        if outside.any():
            first = np.argmax(outside)
            raise ChartDomainError(f"point (t={t.flat[first]}, x={x.flat[first]}) outside chart")

    def wrap(self, x):
        """Map x into [x_min, x_max) for circle topology."""
        if self.topology != "circle":
            return x
        return self.x_min + np.mod(x - self.x_min, self.period)


@dataclass(frozen=True)
class CauchyLine:
    """The constant-time hypersurface {t = t0}."""

    t0: float


class DiagonalMetric:
    """g = alpha^2 dt^2 - beta^2 dx^2 with alpha, beta > 0."""

    def __init__(self, alpha: Union[str, ExprAst, float], beta: Union[str, ExprAst, float], chart: Chart1p1):
        self.alpha_ast = _expr.as_ast(alpha)
        self.beta_ast = _expr.as_ast(beta)
        self.chart = chart
        self.is_constant = _expr.is_constant(self.alpha_ast) and _expr.is_constant(self.beta_ast)
        self.t_dependent = _expr.uses_var(self.alpha_ast, "t") or _expr.uses_var(self.beta_ast, "t")
        self._shadows: Dict[tuple, CausalShadow] = {}
        self._max_light_speed: Optional[float] = None
        # positivity spot-check on a coarse lattice
        ts = np.linspace(chart.t_min, chart.t_max, 9)
        xs = np.linspace(chart.x_min, chart.x_max, 33)
        tt, xx = np.meshgrid(ts, xs, indexing="ij")
        a = self.alpha(tt, xx)
        b = self.beta(tt, xx)
        if np.any(np.asarray(a) <= 0) or np.any(np.asarray(b) <= 0):
            raise MetricPositivityError("alpha and beta must be strictly positive on the chart")

    def alpha(self, t, x):
        return _expr.evaluate(self.alpha_ast, t, x)

    def beta(self, t, x):
        return _expr.evaluate(self.beta_ast, t, x)

    def light_speed(self, t, x):
        """Coordinate speed of null characteristics, c = alpha/beta."""
        return self.alpha(t, x) / self.beta(t, x)

    def max_light_speed(self) -> float:
        """The largest alpha/beta on a 17 x 129 lattice over the chart,
        evaluated on the first call and kept."""
        if self._max_light_speed is None:
            ts = np.linspace(self.chart.t_min, self.chart.t_max, 17)
            xs = np.linspace(self.chart.x_min, self.chart.x_max, 129)
            tt, xx = np.meshgrid(ts, xs, indexing="ij")
            self._max_light_speed = float(np.max(self.light_speed(tt, xx)))
        return self._max_light_speed

    def inverse_on_covector(self, point, xi):
        """g(xi, xi) for a covector xi = (xi_t, xi_x) at point = (t, x).
        Either may be an (n, 2) array of n points or covectors, giving n
        values; a single point and covector give a float.  float_power
        squares as a scalar ** 2 does (libm pow), so a point gives the same
        bits alone and in an array, where ** 2 would multiply."""
        point, xi = np.asarray(point, dtype=float), np.asarray(xi, dtype=float)
        t, x, xi_t, xi_x = point[..., 0], point[..., 1], xi[..., 0], xi[..., 1]
        self.chart.require(t, x)
        sq = np.float_power
        g = sq(xi_t, 2) / sq(self.alpha(t, x), 2) - sq(xi_x, 2) / sq(self.beta(t, x), 2)
        return float(g) if np.ndim(g) == 0 else g

    def shadow(self, seed, t0: float, direction: str, dt: float) -> "CausalShadow":
        """causal_shadow(self, seed, t0, direction, dt=dt), swept on the
        first request and shared after that."""
        t0, dt = float(t0), float(dt)
        key = (_seeds(seed), t0, direction, dt)
        if key not in self._shadows:
            self._shadows[key] = causal_shadow(self, seed, t0, direction, dt=dt)
        return self._shadows[key]

    def hypersurface_measure(self, sigma: CauchyLine, x) -> float:
        """Induced volume density on {t = t0}: beta(t0, x)."""
        return self.beta(sigma.t0, x)

    def volume_density(self, t, x):
        """Spacetime volume density alpha * beta."""
        return self.alpha(t, x) * self.beta(t, x)


def merge_intervals(intervals: Iterable[Interval]) -> List[Interval]:
    ivs = sorted((float(lo), float(hi)) for lo, hi in intervals if hi >= lo)
    out: List[Interval] = []
    for lo, hi in ivs:
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


@dataclass(frozen=True)
class CausalShadow:
    """Causal future/past of a seed region, one interval union per time level."""

    chart: Chart1p1
    times: np.ndarray  # ascending
    intervals: List[List[Interval]]  # one union per time level
    truncated: bool = False

    def level_index(self, t: float) -> int:
        i = int(np.argmin(np.abs(self.times - t)))
        return i

    def intervals_at(self, t: float) -> List[Interval]:
        return self.intervals[self.level_index(t)]

    def _candidates(self, x):
        # on a circle, shadow endpoints live in unwrapped coordinates, so
        # test all representatives of x modulo the period
        if self.chart.topology == "circle":
            p = self.chart.period
            return (x - p, x, x + p)
        return (x,)

    def contains(self, t: float, x: float) -> bool:
        if t < self.times[0] - 1e-12 or t > self.times[-1] + 1e-12:
            return False
        for xr in self._candidates(self.chart.wrap(x)):
            for lo, hi in self.intervals_at(t):
                if lo - 1e-14 <= xr <= hi + 1e-14:
                    return True
        return False

    def outside_mask(self, t: float, xs: np.ndarray) -> np.ndarray:
        """Boolean mask of grid points outside the shadow at time t."""
        if t < self.times[0] - 1e-12 or t > self.times[-1] + 1e-12:
            return np.ones_like(xs, dtype=bool)
        inside = np.zeros_like(xs, dtype=bool)
        for xr in self._candidates(self.chart.wrap(xs)):
            for lo, hi in self.intervals_at(t):
                inside |= (xr >= lo) & (xr <= hi)
        return ~inside

    def inflate(self, margin: float) -> "CausalShadow":
        new = []
        full = (self.chart.x_min, self.chart.x_max)
        for union in self.intervals:
            grown = [(lo - margin, hi + margin) for lo, hi in union]
            if self.chart.topology == "circle":
                grown = [u if u[1] - u[0] < self.chart.period else full for u in grown]
            else:
                grown = [
                    (max(lo, self.chart.x_min), min(hi, self.chart.x_max)) for lo, hi in grown
                ]
            new.append(merge_intervals(grown))
        return CausalShadow(self.chart, self.times, new, self.truncated)


def _seeds(seed: Union[Interval, Sequence[Interval]]) -> Tuple[Interval, ...]:
    """One interval or a sequence of them, as a tuple of float pairs."""
    if isinstance(seed[0], (int, float)):
        return ((float(seed[0]), float(seed[1])),)
    return tuple((float(lo), float(hi)) for lo, hi in seed)


def _rk4_step(f, t: float, y: np.ndarray, h: float) -> np.ndarray:
    k1 = f(t, y)
    k2 = f(t + h / 2, y + h / 2 * k1)
    k3 = f(t + h / 2, y + h / 2 * k2)
    k4 = f(t + h, y + h * k3)
    return y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def causal_shadow(
    metric: DiagonalMetric,
    seed: Union[Interval, Sequence[Interval]],
    t0: float,
    direction: str = "future",
    t_target: Optional[float] = None,
    dt: Optional[float] = None,
) -> CausalShadow:
    """Sweep the null characteristics from the endpoints of the seed
    interval(s) at t0 and return the swept region per stored time level.

    direction is "future", "past" or "both"; for "both" the shadow covers
    the full chart time range (t_target is ignored) and equals
    J_+(seed) union J_-(seed).
    """
    chart = metric.chart
    seeds = list(_seeds(seed))
    for lo, hi in seeds:
        chart.require(t0, lo)
        chart.require(t0, hi)

    if direction == "both":
        fwd = causal_shadow(metric, seeds, t0, "future", chart.t_max, dt)
        bwd = causal_shadow(metric, seeds, t0, "past", chart.t_min, dt)
        times = np.concatenate([bwd.times[:-1], fwd.times])
        intervals = bwd.intervals[:-1] + fwd.intervals
        return CausalShadow(chart, times, intervals, fwd.truncated or bwd.truncated)

    if direction not in ("future", "past"):
        raise ValueError(f"unknown direction {direction!r}")
    sign = 1.0 if direction == "future" else -1.0
    if t_target is None:
        t_target = chart.t_max if direction == "future" else chart.t_min
    if not chart.t_min <= t_target <= chart.t_max:
        raise ChartDomainError(f"t_target={t_target} outside chart")
    span = abs(t_target - t0)
    if dt is None:
        dt = max(span / 256.0, 1e-9)
    n_steps = max(1, int(np.ceil(span / dt - 1e-12)))
    h = sign * span / n_steps

    # each seed contributes one expanding interval; all endpoints follow the
    # outgoing null characteristics in one state, the left ones against and
    # the right ones along the direction of propagation
    m = len(seeds)
    x = np.array([lo for lo, _ in seeds] + [hi for _, hi in seeds])
    signs = np.repeat([-sign, sign], m)
    truncated = False
    times = [t0]
    unions = [merge_intervals(seeds)]
    for n in range(n_steps):
        x = _rk4_step(lambda tt, xx: signs * metric.light_speed(tt, chart.wrap(xx)), t0 + n * h, x, h)
        if chart.topology == "line":
            truncated |= bool(np.any(x[:m] < chart.x_min) or np.any(x[m:] > chart.x_max))
            x[:m] = np.maximum(x[:m], chart.x_min)
            x[m:] = np.minimum(x[m:], chart.x_max)
        union = list(zip(x[:m].tolist(), x[m:].tolist()))
        if chart.topology == "circle" and any(hi - lo >= chart.period for lo, hi in union):
            union = [(chart.x_min, chart.x_max)]
        times.append(t0 + (n + 1) * h)
        unions.append(merge_intervals(union))

    times_arr = np.array(times)
    if direction == "past":
        order = np.argsort(times_arr)
        times_arr = times_arr[order]
        unions = [unions[i] for i in order]
    return CausalShadow(chart, times_arr, unions, truncated)


def minkowski(chart: Optional[Chart1p1] = None) -> DiagonalMetric:
    """Flat metric alpha = beta = 1 on the given (or a default) chart."""
    if chart is None:
        chart = Chart1p1(-1.0, 1.0, -2.0, 2.0)
    return DiagonalMetric(1.0, 1.0, chart)
