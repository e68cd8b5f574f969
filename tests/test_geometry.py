import dataclasses

import numpy as np
import pytest

from prehyp.geometry import (
    CauchyLine,
    Chart1p1,
    ChartDomainError,
    DiagonalMetric,
    MetricPositivityError,
    causal_shadow,
    merge_intervals,
    minkowski,
)


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

    def test_t_dependence_flag(self):
        assert DiagonalMetric("1+0.1*sin(t)", "1", wide_chart()).t_dependent
        assert not DiagonalMetric("1", "1+0.3*cos(x)", wide_chart()).t_dependent

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


def test_merge_intervals():
    assert merge_intervals([(0, 1), (0.5, 2), (3, 4)]) == [(0.0, 2.0), (3.0, 4.0)]
    assert merge_intervals([]) == []


class TestCausalShadow:
    def test_minkowski_unit_speed(self):
        g = minkowski(Chart1p1(0.0, 1.0, -2.0, 2.0))
        s = causal_shadow(g, (-0.1, 0.1), 0.0, "future", 1.0)
        (lo, hi), = s.intervals_at(1.0)
        assert lo == pytest.approx(-1.1, abs=1e-10)
        assert hi == pytest.approx(1.1, abs=1e-10)
        assert not s.truncated

    def test_half_speed(self):
        g = DiagonalMetric("1", "2", Chart1p1(0.0, 1.0, -2.0, 2.0))
        s = causal_shadow(g, (0.0, 0.0), 0.0, "future", 1.0)
        (lo, hi), = s.intervals_at(1.0)
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
            (a1, b1), = s1.intervals_at(t)
            (a2, b2), = s2.intervals_at(t)
            assert abs(a1 - a2) < 1e-10
            assert abs(b1 - b2) < 1e-10

    def test_past_direction(self):
        g = minkowski(Chart1p1(0.0, 1.0, -2.0, 2.0))
        s = causal_shadow(g, (-0.1, 0.1), 1.0, "past", 0.0)
        (lo, hi), = s.intervals_at(0.0)
        assert lo == pytest.approx(-1.1, abs=1e-10)
        assert hi == pytest.approx(1.1, abs=1e-10)

    def test_monotone_growth(self):
        g = DiagonalMetric("1", "1+0.2*cos(x)", Chart1p1(0.0, 1.0, -4.0, 4.0))
        s = causal_shadow(g, (-0.1, 0.1), 0.0, "future", 1.0)
        t1, t2 = 0.4, 0.8
        (a1, b1), = s.intervals_at(t1)
        # shadow of the restricted set at t1 must land inside the shadow at t2
        s_re = causal_shadow(g, (a1, b1), s.times[s.level_index(t1)], "future", t2)
        (ar, br), = s_re.intervals_at(t2)
        (a2, b2), = s.intervals_at(t2)
        assert a2 <= ar + 1e-9
        assert br <= b2 + 1e-9

    def test_truncation_flag_on_line(self):
        g = minkowski(Chart1p1(0.0, 1.0, -0.5, 0.5))
        s = causal_shadow(g, (-0.2, 0.2), 0.0, "future", 1.0)
        assert s.truncated
        (lo, hi), = s.intervals_at(1.0)
        assert lo == -0.5 and hi == 0.5

    def test_circle_full_cover(self):
        chart = Chart1p1(0.0, 2.0, -1.0, 1.0, topology="circle")
        g = minkowski(chart)
        s = causal_shadow(g, (-0.1, 0.1), 0.0, "future", 2.0)
        assert s.intervals_at(2.0) == [(-1.0, 1.0)]

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
        (lo, _), = s.intervals_at(-1.0)
        assert lo == pytest.approx(-1.1, abs=1e-9)
        (lo2, _), = s.intervals_at(1.0)
        assert lo2 == pytest.approx(-1.1, abs=1e-9)

    def test_bounded_intersection_of_cones(self):
        # J+(K) cap J-(K') is a bounded interval union
        g = minkowski(Chart1p1(0.0, 1.0, -3.0, 3.0))
        fwd = causal_shadow(g, (-0.1, 0.1), 0.0, "future", 1.0)
        bwd = causal_shadow(g, (-0.1, 0.1), 1.0, "past", 0.0)
        for t in (0.25, 0.5, 0.75):
            (af, bf), = fwd.intervals_at(t)
            (ab, bb), = bwd.intervals_at(t)
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

    def test_metric_sweeps_each_shadow_once(self):
        g = minkowski(Chart1p1(-1.0, 1.0, -3.0, 3.0))
        s = g.shadow((-0.1, 0.1), 0.0, "both", 0.01)
        assert g.shadow([(-0.1, 0.1)], 0, "both", 0.01) is s
        assert g.shadow((-0.1, 0.1), 0.0, "future", 0.01) is not s
        ref = causal_shadow(g, (-0.1, 0.1), 0.0, "both", dt=0.01)
        assert np.array_equal(ref.times, s.times) and ref.intervals == s.intervals
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.truncated = True
