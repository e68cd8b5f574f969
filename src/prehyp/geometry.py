"""Model spacetimes for the 1+1 setting.

A chart covers a coordinate rectangle [t_min, t_max] x [x_min, x_max] with
either line or circle spatial topology, carrying a diagonal Lorentzian
metric g = alpha(t,x)^2 dt^2 - beta(t,x)^2 dx^2 of signature (+,-).  Every
constant-t line is then a spacelike Cauchy hypersurface.  Causal futures
and pasts are computed by integrating the null characteristic ODE
dx/dt = +- alpha/beta from the two endpoints of its seed interval: in
1+1 dimensions J_+ or J_- of one interval meets each constant-t line in
one interval, so a shadow stores one (lo, hi) pair per time level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

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

    def shadow(self, seed: Interval, t0: float, direction: str, dt: float) -> "CausalShadow":
        """causal_shadow(self, seed, t0, direction, dt=dt), swept on the
        first request and shared after that."""
        t0, dt = float(t0), float(dt)
        key = (float(seed[0]), float(seed[1]), t0, direction, dt)
        if key not in self._shadows:
            self._shadows[key] = causal_shadow(self, seed, t0, direction, dt=dt)
        return self._shadows[key]

    def hypersurface_measure(self, sigma: CauchyLine, x) -> float:
        """Induced volume density on {t = t0}: beta(t0, x)."""
        return self.beta(sigma.t0, x)

    def volume_density(self, t, x):
        """Spacetime volume density alpha * beta."""
        return self.alpha(t, x) * self.beta(t, x)


@dataclass(frozen=True)
class CausalShadow:
    """Causal future/past of a seed interval: at each stored time level
    one interval [lo, hi], bounded by the two outgoing null
    characteristics.  On a circle the endpoints are unwrapped, and a level
    whose interval covers the period holds the full chart."""

    chart: Chart1p1
    times: np.ndarray  # ascending
    lo: np.ndarray  # one left endpoint per time level
    hi: np.ndarray  # one right endpoint per time level
    truncated: bool = False

    @property
    def intervals(self) -> List[List[Interval]]:
        """The levels as one-interval lists, [(lo, hi)] per level: the
        form perfbench/tracer.py digests each traced sweep in."""
        return [[iv] for iv in zip(self.lo.tolist(), self.hi.tolist())]

    def level_index(self, t):
        """The stored level nearest t, the first on ties; an array of
        times gives an array of levels."""
        return np.argmin(np.abs(self.times - np.asarray(t)[..., None]), axis=-1)

    def bounds_at(self, t: float) -> Interval:
        i = self.level_index(t)
        return float(self.lo[i]), float(self.hi[i])

    def _inside(self, t, x, slack: float = 0.0):
        """Whether x lies in the interval (widened by slack) of the level
        nearest t, for t within the stored times.  t may be a column of
        times and x a row of points, giving one row per time."""
        t = np.asarray(t, dtype=float)
        i = self.level_index(t)
        lo, hi = self.lo[i] - slack, self.hi[i] + slack
        x = self.chart.wrap(x)
        inside = (x >= lo) & (x <= hi)
        if self.chart.topology == "circle":
            # the endpoints are unwrapped: test the neighbouring
            # representatives of x modulo the period too
            p = self.chart.period
            inside |= ((x - p >= lo) & (x - p <= hi)) | ((x + p >= lo) & (x + p <= hi))
        return inside & (t >= self.times[0] - 1e-12) & (t <= self.times[-1] + 1e-12)

    def contains(self, t: float, x: float) -> bool:
        return bool(self._inside(t, x, 1e-14))

    def outside_mask(self, t, xs: np.ndarray) -> np.ndarray:
        """Boolean mask of the points xs outside the shadow at time t; a
        column of times gives one row per time."""
        return ~self._inside(t, xs)

    def inflate(self, margin: float) -> "CausalShadow":
        chart = self.chart
        lo, hi = self.lo - margin, self.hi + margin
        if chart.topology == "circle":
            full = hi - lo >= chart.period
            lo, hi = np.where(full, chart.x_min, lo), np.where(full, chart.x_max, hi)
        else:
            lo, hi = np.maximum(lo, chart.x_min), np.minimum(hi, chart.x_max)
        return CausalShadow(chart, self.times, lo, hi, self.truncated)


def _rk4_step(f, t: float, y: np.ndarray, h: float, t_next: float) -> np.ndarray:
    k1 = f(t, y)
    k2 = f(t + h / 2, y + h / 2 * k1)
    k3 = f(t + h / 2, y + h / 2 * k2)
    k4 = f(t_next, y + h * k3)
    return y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def causal_shadow(
    metric: DiagonalMetric,
    seed: Interval,
    t0: float,
    direction: str = "future",
    t_target: Optional[float] = None,
    dt: Optional[float] = None,
) -> CausalShadow:
    """Sweep the null characteristics from the endpoints of the seed
    interval at t0 and return the swept interval per stored time level.

    direction is "future", "past" or "both"; for "both" the shadow covers
    the full chart time range (t_target is ignored) and equals
    J_+(seed) union J_-(seed).
    """
    chart = metric.chart
    lo, hi = float(seed[0]), float(seed[1])
    chart.require(t0, lo)
    chart.require(t0, hi)

    if direction == "both":
        fwd = causal_shadow(metric, (lo, hi), t0, "future", chart.t_max, dt)
        bwd = causal_shadow(metric, (lo, hi), t0, "past", chart.t_min, dt)
        times, los, his = (
            np.concatenate([b[:-1], f]) for b, f in ((bwd.times, fwd.times), (bwd.lo, fwd.lo), (bwd.hi, fwd.hi))
        )
        return CausalShadow(chart, times, los, his, fwd.truncated or bwd.truncated)

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

    # both endpoints follow the outgoing null characteristics in one state,
    # the left one against and the right one along the direction of
    # propagation
    signs = np.array([-sign, sign])
    truncated = False
    ends = np.empty((n_steps + 1, 2))
    ends[0] = x = np.array([lo, hi])
    for n in range(n_steps):
        # the last step ends on t_target itself: t0 + n_steps h can round
        # past it, out of the chart
        t = t0 + n * h
        t_next = t_target if n == n_steps - 1 else t + h
        x = _rk4_step(lambda tt, xx: signs * metric.light_speed(tt, chart.wrap(xx)), t, x, h, t_next)
        if chart.topology == "line":
            truncated |= bool(x[0] < chart.x_min or x[1] > chart.x_max)
            x[0], x[1] = max(x[0], chart.x_min), min(x[1], chart.x_max)
        ends[n + 1] = x
    los, his = ends[:, 0], ends[:, 1]
    if chart.topology == "circle":
        full = his - los >= chart.period
        los, his = np.where(full, chart.x_min, los), np.where(full, chart.x_max, his)
    times = t0 + np.arange(n_steps + 1) * h
    times[-1] = t_target
    if direction == "past":
        times, los, his = times[::-1], los[::-1], his[::-1]
    return CausalShadow(chart, times, los, his, truncated)


def minkowski(chart: Optional[Chart1p1] = None) -> DiagonalMetric:
    """Flat metric alpha = beta = 1 on the given (or a default) chart."""
    if chart is None:
        chart = Chart1p1(-1.0, 1.0, -2.0, 2.0)
    return DiagonalMetric(1.0, 1.0, chart)
