import dataclasses

import numpy as np
import pytest

from prehyp.cauchy import support_leak
from prehyp.expr import ExprEvalError
from prehyp.geometry import (
    CauchyLine,
    Chart1p1,
    ChartDomainError,
    DiagonalMetric,
    MetricPositivityError,
    causal_shadow,
    minkowski,
)
from prehyp.grids import GridSection, build_grid


def wide_chart():
    return Chart1p1(0.0, 1.0, -2.0, 2.0)


class TestChart:
    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError):
            Chart1p1(1.0, 0.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            Chart1p1(0.0, 1.0, 1.0, 1.0)

    def test_unknown_topology(self):
        with pytest.raises(ValueError):
            Chart1p1(0.0, 1.0, -1.0, 1.0, topology="torus")

    def test_contains_and_wrap(self):
        c = Chart1p1(0.0, 1.0, -1.0, 1.0, topology="circle")
        assert c.contains(0.5, 7.3)  # any x on a circle
        assert c.wrap(1.5) == pytest.approx(-0.5)


class TestMetric:
    def test_positivity_enforced(self):
        with pytest.raises(MetricPositivityError):
            DiagonalMetric("t", "1", wide_chart())  # alpha = 0 at t=0

    def test_inverse_on_covector_minkowski(self):
        g = minkowski(wide_chart())
        assert g.inverse_on_covector((0.5, 0.0), (1.0, 0.0)) == pytest.approx(1.0)
        assert g.inverse_on_covector((0.5, 0.0), (1.0, 1.0)) == pytest.approx(0.0)

    def test_inverse_on_covector_stretched(self):
        g = DiagonalMetric("1", "2", wide_chart())
        assert g.inverse_on_covector((0.5, 0.3), (0.0, 1.0)) == pytest.approx(-0.25)

    def test_point_outside_chart(self):
        g = minkowski(wide_chart())
        with pytest.raises(ChartDomainError):
            g.inverse_on_covector((5.0, 0.0), (1.0, 0.0))

    def test_hypersurface_measure(self):
        assert minkowski(wide_chart()).hypersurface_measure(CauchyLine(0.0), 0.0) == pytest.approx(1.0)
        assert DiagonalMetric("1", "2", wide_chart()).hypersurface_measure(CauchyLine(0.0), 0.0) == pytest.approx(2.0)
        assert DiagonalMetric("1", "1+x^2", wide_chart()).hypersurface_measure(CauchyLine(0.0), 1.0) == pytest.approx(2.0)

    def test_volume_density(self):
        g = DiagonalMetric("2", "3", wide_chart())
        assert g.volume_density(0.0, 0.0) == pytest.approx(6.0)

    def test_max_light_speed_evaluates_the_metric_once(self, monkeypatch):
        g = DiagonalMetric("1+0.1*sin(t)", "1+0.3*cos(2*x)", wide_chart())
        ts, xs = np.meshgrid(np.linspace(0.0, 1.0, 17), np.linspace(-2.0, 2.0, 129), indexing="ij")
        first = g.max_light_speed()
        assert first == float(np.max(g.light_speed(ts, xs)))
        evaluated = []
        for name in ("alpha", "beta"):
            monkeypatch.setattr(g, name, lambda t, x, name=name: evaluated.append(name))
        assert g.max_light_speed() == first
        assert evaluated == []


class TestCausalShadow:
    def test_minkowski_unit_speed(self):
        g = minkowski(Chart1p1(0.0, 1.0, -2.0, 2.0))
        s = causal_shadow(g, (-0.1, 0.1), 0.0, "future", 1.0)
        lo, hi = s.bounds_at(1.0)
        assert lo == pytest.approx(-1.1, abs=1e-10)
        assert hi == pytest.approx(1.1, abs=1e-10)
        assert not s.truncated

    def test_half_speed(self):
        g = DiagonalMetric("1", "2", Chart1p1(0.0, 1.0, -2.0, 2.0))
        s = causal_shadow(g, (0.0, 0.0), 0.0, "future", 1.0)
        lo, hi = s.bounds_at(1.0)
        assert lo == pytest.approx(-0.5, abs=1e-10)
        assert hi == pytest.approx(0.5, abs=1e-10)

    def test_conformal_invariance(self):
        chart = Chart1p1(0.0, 1.0, -3.0, 3.0)
        omega = "1+0.3*sin(t)*cos(x)"
        g_conf = DiagonalMetric(omega, omega, chart)
        g_flat = minkowski(chart)
        s1 = causal_shadow(g_conf, (-0.2, 0.2), 0.0, "future", 1.0)
        s2 = causal_shadow(g_flat, (-0.2, 0.2), 0.0, "future", 1.0)
        for t in (0.25, 0.5, 1.0):
            a1, b1 = s1.bounds_at(t)
            a2, b2 = s2.bounds_at(t)
            assert abs(a1 - a2) < 1e-10
            assert abs(b1 - b2) < 1e-10

    def test_past_direction(self):
        g = minkowski(Chart1p1(0.0, 1.0, -2.0, 2.0))
        s = causal_shadow(g, (-0.1, 0.1), 1.0, "past", 0.0)
        lo, hi = s.bounds_at(0.0)
        assert lo == pytest.approx(-1.1, abs=1e-10)
        assert hi == pytest.approx(1.1, abs=1e-10)

    def test_monotone_growth(self):
        g = DiagonalMetric("1", "1+0.2*cos(x)", Chart1p1(0.0, 1.0, -4.0, 4.0))
        s = causal_shadow(g, (-0.1, 0.1), 0.0, "future", 1.0)
        t1, t2 = 0.4, 0.8
        a1, b1 = s.bounds_at(t1)
        # shadow of the restricted set at t1 must land inside the shadow at t2
        s_re = causal_shadow(g, (a1, b1), s.times[s.level_index(t1)], "future", t2)
        ar, br = s_re.bounds_at(t2)
        a2, b2 = s.bounds_at(t2)
        assert a2 <= ar + 1e-9
        assert br <= b2 + 1e-9

    @pytest.mark.parametrize("beta, direction, levels", [
        ("1+0.1*sqrt(t+0.3)", "past", (2, 4, 381)),
        ("1+0.1*sqrt(0.3-t)", "future", (2, 3, 380)),
    ])
    def test_one_way_sweep_ends_exactly_on_the_chart_edge(self, monkeypatch, beta, direction, levels):
        # from these levels of the nx 512 grid t0 + n h rounds one ulp past
        # the chart's edge, where sqrt of a negative number is not finite;
        # the last step ends on the edge itself
        chart = Chart1p1(-0.3, 0.3, -1.0, 1.0)
        metric = DiagonalMetric("1", beta, chart)
        grid = build_grid(chart, metric, 512, 0.4)
        # the sweep evaluates the metric once per RK4 stage, through its
        # compiled alpha and beta
        stage_times = []
        alpha_beta = metric.alpha_beta_at_ends

        def recording(t, *xs):
            stage_times.append(t)
            return alpha_beta(t, *xs)

        monkeypatch.setattr(metric, "alpha_beta_at_ends", recording)
        edge = chart.t_min if direction == "past" else chart.t_max
        for j in levels:
            s = causal_shadow(metric, (-0.1, 0.1), float(grid.ts[j]), direction, dt=grid.dt)
            assert (s.times[0] if direction == "past" else s.times[-1]) == edge
        assert chart.t_min <= min(stage_times) and max(stage_times) <= chart.t_max
        assert edge in stage_times

    def test_truncation_flag_on_line(self):
        g = minkowski(Chart1p1(0.0, 1.0, -0.5, 0.5))
        s = causal_shadow(g, (-0.2, 0.2), 0.0, "future", 1.0)
        assert s.truncated
        lo, hi = s.bounds_at(1.0)
        assert lo == -0.5 and hi == 0.5

    def test_circle_full_cover(self):
        chart = Chart1p1(0.0, 2.0, -1.0, 1.0, topology="circle")
        g = minkowski(chart)
        s = causal_shadow(g, (-0.1, 0.1), 0.0, "future", 2.0)
        assert s.bounds_at(2.0) == (-1.0, 1.0)

    def test_circle_wrapped_membership(self):
        chart = Chart1p1(0.0, 0.5, -1.0, 1.0, topology="circle")
        g = minkowski(chart)
        s = causal_shadow(g, (0.8, 0.95), 0.0, "future", 0.5)
        # the cone crosses the seam at x = 1 == -1
        assert s.contains(0.4, -0.9)
        assert not s.contains(0.4, 0.0)

    def test_both_directions(self):
        g = minkowski(Chart1p1(-1.0, 1.0, -3.0, 3.0))
        s = causal_shadow(g, (-0.1, 0.1), 0.0, "both")
        lo, _ = s.bounds_at(-1.0)
        assert lo == pytest.approx(-1.1, abs=1e-9)
        lo2, _ = s.bounds_at(1.0)
        assert lo2 == pytest.approx(-1.1, abs=1e-9)

    def test_bounded_intersection_of_cones(self):
        # J+(K) cap J-(K') is a bounded interval union
        g = minkowski(Chart1p1(0.0, 1.0, -3.0, 3.0))
        fwd = causal_shadow(g, (-0.1, 0.1), 0.0, "future", 1.0)
        bwd = causal_shadow(g, (-0.1, 0.1), 1.0, "past", 0.0)
        for t in (0.25, 0.5, 0.75):
            af, bf = fwd.bounds_at(t)
            ab, bb = bwd.bounds_at(t)
            lo, hi = max(af, ab), min(bf, bb)
            assert lo <= hi  # nonempty here
            assert hi - lo <= 2.2 + 1e-9  # bounded

    def test_outside_mask(self):
        g = minkowski(Chart1p1(0.0, 1.0, -2.0, 2.0))
        s = causal_shadow(g, (-0.1, 0.1), 0.0, "future", 1.0)
        xs = np.linspace(-2, 2, 41)
        mask = s.outside_mask(0.5, xs)
        inside = ~mask
        assert np.all(np.abs(xs[inside]) <= 0.6 + 1e-9)
        assert np.all(np.abs(xs[mask]) >= 0.6 - 1e-9)

    def test_level_lookup_takes_the_first_on_ties(self):
        g = minkowski(Chart1p1(0.0, 1.0, -2.0, 2.0))
        s = causal_shadow(g, (-0.1, 0.1), 0.0, "future", 1.0, dt=0.5)
        assert np.array_equal(s.times, [0.0, 0.5, 1.0])
        assert s.level_index(0.25) == 0 and s.bounds_at(0.25) == (-0.1, 0.1)
        assert np.array_equal(s.level_index(np.array([[0.25], [0.75]])), [[0], [1]])
        column = s.outside_mask(np.array([[0.25], [0.75], [1.5]]), np.array([-0.3, 0.0, 0.3]))
        assert np.array_equal(column, [[True, False, True], [False, False, False], [True, True, True]])

    def test_metric_sweeps_each_shadow_once(self):
        g = minkowski(Chart1p1(-1.0, 1.0, -3.0, 3.0))
        s = g.shadow((-0.1, 0.1), 0.0, "both", 0.01)
        assert g.shadow((-0.1, 0.1), 0.0, "future", 0.01) is not s
        ref = causal_shadow(g, (-0.1, 0.1), 0.0, "both", dt=0.01)
        assert all(np.array_equal(getattr(ref, a), getattr(s, a)) for a in ("times", "lo", "hi"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.truncated = True


# ---------------------------------------------------------------------------
# the one-interval shadow against the interval-union sweep it replaced

def reference_merge_intervals(intervals):
    ivs = sorted((float(lo), float(hi)) for lo, hi in intervals if hi >= lo)
    out = []
    for lo, hi in ivs:
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def reference_shadow(metric, seed, t0, direction, t_target=None, dt=None):
    """The union sweep: (times, one merged interval union per level,
    truncated), for a list of seed intervals."""
    chart = metric.chart
    if direction == "both":
        ft, fu, ftr = reference_shadow(metric, seed, t0, "future", chart.t_max, dt)
        bt, bu, btr = reference_shadow(metric, seed, t0, "past", chart.t_min, dt)
        return np.concatenate([bt[:-1], ft]), bu[:-1] + fu, ftr or btr
    sign = 1.0 if direction == "future" else -1.0
    if t_target is None:
        t_target = chart.t_max if direction == "future" else chart.t_min
    span = abs(t_target - t0)
    if dt is None:
        dt = max(span / 256.0, 1e-9)
    n_steps = max(1, int(np.ceil(span / dt - 1e-12)))
    h = sign * span / n_steps
    m = len(seed)
    x = np.array([lo for lo, _ in seed] + [hi for _, hi in seed])
    signs = np.repeat([-sign, sign], m)
    truncated = False
    times, unions = [t0], [reference_merge_intervals(seed)]
    def f(tt, xx):
        return signs * metric.light_speed(tt, chart.wrap(xx))

    for n in range(n_steps):
        t = t0 + n * h
        t_next = t_target if n == n_steps - 1 else t + h
        k1 = f(t, x)
        k2 = f(t + h / 2, x + h / 2 * k1)
        k3 = f(t + h / 2, x + h / 2 * k2)
        k4 = f(t_next, x + h * k3)
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if chart.topology == "line":
            truncated |= bool(np.any(x[:m] < chart.x_min) or np.any(x[m:] > chart.x_max))
            x[:m] = np.maximum(x[:m], chart.x_min)
            x[m:] = np.minimum(x[m:], chart.x_max)
        union = list(zip(x[:m].tolist(), x[m:].tolist()))
        if chart.topology == "circle" and any(hi - lo >= chart.period for lo, hi in union):
            union = [(chart.x_min, chart.x_max)]
        times.append(t_target if n == n_steps - 1 else t0 + (n + 1) * h)
        unions.append(reference_merge_intervals(union))
    times = np.array(times)
    if direction == "past":
        order = np.argsort(times)
        times, unions = times[order], [unions[i] for i in order]
    return times, unions, truncated


def reference_inflate(chart, unions, margin):
    full = (chart.x_min, chart.x_max)
    new = []
    for union in unions:
        grown = [(lo - margin, hi + margin) for lo, hi in union]
        if chart.topology == "circle":
            grown = [u if u[1] - u[0] < chart.period else full for u in grown]
        else:
            grown = [(max(lo, chart.x_min), min(hi, chart.x_max)) for lo, hi in grown]
        new.append(reference_merge_intervals(grown))
    return new


def reference_leak(phi, chart, times, unions, reference):
    """The per-level support leak over an interval-union shadow."""
    grid = phi.grid
    worst = 0.0
    for j, t in enumerate(grid.ts):
        t = float(t)
        if t < times[0] - 1e-12 or t > times[-1] + 1e-12:
            mask = np.ones_like(grid.xs, dtype=bool)
        else:
            xs = chart.wrap(grid.xs)
            p = chart.period
            inside = np.zeros_like(grid.xs, dtype=bool)
            for xr in (xs - p, xs, xs + p) if chart.topology == "circle" else (xs,):
                for lo, hi in unions[int(np.argmin(np.abs(times - t)))]:
                    inside |= (xr >= lo) & (xr <= hi)
            mask = ~inside
        if mask.any():
            worst = max(worst, float(np.max(np.abs(phi.values[j][mask]))))
    return worst / reference if reference > 0 else worst


SWEEP_CHARTS = {
    "line": (Chart1p1(-0.3, 0.3, -1.0, 1.0), (-0.1, 0.05), 0.0123),
    "truncated line": (Chart1p1(0.0, 1.0, -0.5, 0.5), (-0.2, 0.2), 0.4),
    "wrapping circle": (Chart1p1(0.0, 3.0, -1.0, 1.0, "circle"), (0.5, 0.95), 1.5),
}


SWEEP_METRICS = {
    "flat": ("1", "1"),
    "readme": ("1+0.1*sin(t)", "1+0.3*cos(2*x)"),
    "general": ("1+0.3*x", "1+0.3*t"),
    "special": ("1+0.2*tanh(x-t)*exp(-x^2)", "sqrt(1.5+0.4*sin(3*x+t))"),
}


@pytest.mark.parametrize("direction", ["future", "past", "both"])
@pytest.mark.parametrize("metric", list(SWEEP_METRICS.values()), ids=list(SWEEP_METRICS))
@pytest.mark.parametrize("case", list(SWEEP_CHARTS))
def test_shadow_and_leak_equal_the_union_sweep(case, metric, direction):
    chart, seed, t0 = SWEEP_CHARTS[case]
    g = DiagonalMetric(*metric, chart)
    grid = build_grid(chart, g, 64)
    s = causal_shadow(g, seed, t0, direction, dt=grid.dt)
    times, unions, truncated = reference_shadow(g, [seed], t0, direction, dt=grid.dt)
    assert all(len(u) == 1 for u in unions)
    assert np.array_equal(s.times, times)
    assert np.array_equal(s.lo, [u[0][0] for u in unions])
    assert np.array_equal(s.hi, [u[0][1] for u in unions])
    assert s.truncated == truncated and s.intervals == unions
    if case != "line":
        assert truncated or any(u == [(chart.x_min, chart.x_max)] for u in unions)

    margin = 4 * grid.dx
    rng = np.random.default_rng(7)
    phi = GridSection(grid, rng.standard_normal((grid.nt, grid.nx, 2)) + 1j * rng.standard_normal((grid.nt, grid.nx, 2)))
    leak = support_leak(phi, s.inflate(margin), 1.0)
    assert leak == reference_leak(phi, chart, times, reference_inflate(chart, unions, margin), 1.0)


# exp overflows within 0.0042 of c, between the nodes of the metric's
# positivity lattice (t step 0.075, x step 0.0625), so the metric loads and
# the sweep fails at its first stage there
def spike(var, c):
    return f"1+0*exp(1000*exp(-20000*({var}-{c})^2))"


@pytest.mark.parametrize("metric", [
    pytest.param(("1", spike("x", 0.09375)), id="right end"),
    pytest.param(("1", spike("x", -0.09375)), id="left end"),
    pytest.param((spike("t", 0.0375), "1"), id="time"),
    # both ends fail at one stage, the right one in alpha and the left one
    # in beta: the array sweep reports the right end, whose node comes first
    pytest.param((spike("x", 0.09375), spike("x", -0.09375)), id="both ends"),
])
def test_non_finite_light_speed_raises_where_the_union_sweep_does(metric):
    g = DiagonalMetric(*metric, Chart1p1(-0.3, 0.3, -1.0, 1.0))
    with pytest.raises(ExprEvalError) as got:
        causal_shadow(g, (-0.05, 0.05), 0.0, "both", dt=0.001)
    with pytest.raises(ExprEvalError) as want:
        reference_shadow(g, [(-0.05, 0.05)], 0.0, "both", dt=0.001)
    assert (str(got.value), got.value.t, got.value.x) == (str(want.value), want.value.t, want.value.x)
    assert got.value.t > 0.0
