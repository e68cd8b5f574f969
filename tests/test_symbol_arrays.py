"""Symbol checks on arrays of points against the per-point loops they
replaced.

The pair predicate, the metric's g(xi, xi), the principal symbols and the
invertibility probe take (n, 2) arrays of points and covectors.  The
references below are the per-point code they replaced: one point and one
covector at a time, the random covectors of check-pair drawn by one
rng.uniform call each.  The arithmetic is unchanged, so the results must
be equal, worst point and covector included.
"""

import numpy as np
import pytest

from prehyp import cli
from prehyp.bundle_ops import (
    POLARIZATION_COVECTORS,
    compose,
    default_symbol_tol,
    is_complementary_pair,
    metric_sample_points,
    principal_symbol_1,
    principal_symbol_2,
    symbol_invertibility,
)
from prehyp.config import PRESETS, load_config_text
from prehyp.geometry import Chart1p1, ChartDomainError, DiagonalMetric

METRICS = {
    "minkowski": ("1", "1"),
    "readme": ("1+0.1*sin(t)", "1+0.3*cos(2*x)"),
    "general": ("1+0.3*x", "1+0.3*t"),
    "stretched": ("1", "2"),
}
SEEDS = (0, 3, 11)

CFG = """
[spacetime]
alpha = {alpha}
beta = {beta}
t_range = [-0.3, 0.3]
x_range = [-1, 1]

[operator_P]
preset = {preset}
mass = 1.0

[grid]
nx = 64

[initial_data]
components = {components}
window_center = 0.0
window_halfwidth = 0.05
window_steepness = 10
"""


# -- the per-point references -------------------------------------------------

def reference_inverse_on_covector(metric, point, xi):
    t, x = point
    metric.chart.require(t, x)
    a = metric.alpha(t, x)
    b = metric.beta(t, x)
    return float(xi[0] ** 2 / a**2 - xi[1] ** 2 / b**2)


def reference_symbol_1(op, point, xi):
    t, x = point
    return op.a_t.at(t, x) * xi[0] + op.a_x.at(t, x) * xi[1]


def reference_symbol_2(op, point, xi):
    t, x = point
    return op.c_tt.at(t, x) * xi[0] ** 2 + 2.0 * op.c_tx.at(t, x) * xi[0] * xi[1] + op.c_xx.at(t, x) * xi[1] ** 2


def reference_normally_hyperbolic(op, metric):
    """(max deviation, worst point, worst covector)."""
    eye = np.eye(op.k)
    worst, worst_pt, worst_xi = 0.0, None, None
    for pt in metric_sample_points(metric):
        for xi in POLARIZATION_COVECTORS:
            dev = np.max(np.abs(reference_symbol_2(op, pt, xi) - reference_inverse_on_covector(metric, pt, xi) * eye))
            if dev > worst:
                worst, worst_pt, worst_xi = float(dev), pt, xi
    return worst, worst_pt, worst_xi


def reference_invertibility(op, point, xi, tol=1e-12):
    """(invertible, |det|, condition estimate)."""
    sigma = reference_symbol_1(op, point, xi)
    abs_det = float(np.abs(np.linalg.det(sigma)))
    scale = float(np.max(np.abs(sigma))) if np.max(np.abs(sigma)) > 0 else 1.0
    invertible = abs_det > tol * scale**op.k
    return invertible, abs_det, float(np.linalg.cond(sigma)) if invertible else np.inf


def reference_covector_probe(metric, p, seed):
    """(min_det_margin, all_invertible) of check-pair's random covectors."""
    rng = np.random.default_rng(seed)
    chart = metric.chart
    min_margin, all_inv, count = np.inf, True, 0
    while count < cli.N_RANDOM_COVECTORS:
        t = rng.uniform(chart.t_min, chart.t_max)
        x = rng.uniform(chart.x_min, chart.x_max)
        xi = tuple(rng.uniform(-1.0, 1.0, size=2))
        g = reference_inverse_on_covector(metric, (t, x), xi)
        if abs(g) < 1e-3:
            continue
        count += 1
        invertible, abs_det, _ = reference_invertibility(p, (t, x), xi)
        all_inv &= invertible
        min_margin = min(min_margin, abs_det - abs(g) if p.k == 2 else abs_det)
    return float(min_margin), all_inv


# -----------------------------------------------------------------------------

def load(metric_name, preset):
    alpha, beta = METRICS[metric_name]
    components = "[1]" if preset == "scalar_transport_pair" else "[1, 0.5]"
    return load_config_text(CFG.format(alpha=alpha, beta=beta, preset=preset, components=components))


@pytest.mark.parametrize("metric_name", sorted(METRICS))
@pytest.mark.parametrize("preset", PRESETS)
def test_pair_check_equals_the_per_point_loops(metric_name, preset):
    cfg = load(metric_name, preset)
    metric, (p, q) = cfg.spacetime, cfg.pair
    pair = is_complementary_pair(p, q, metric)
    for rep, op in ((pair.pq, compose(p, q)), (pair.qp, compose(q, p))):
        assert (rep.max_deviation, rep.worst_point, rep.worst_covector) == reference_normally_hyperbolic(op, metric)
    for seed in SEEDS:
        results, _ = cli.run_check_pair(cfg, seed)
        assert results["max_deviation"] == pair.max_deviation
        assert (results["min_det_margin"], results["all_invertible"]) == reference_covector_probe(metric, p, seed)


def test_arrays_of_points_equal_single_points():
    cfg = load("general", "dirac_massive")
    metric, (p, q) = cfg.spacetime, cfg.pair
    rng = np.random.default_rng(2)
    points = np.column_stack([rng.uniform(-0.3, 0.3, 40), rng.uniform(-1.0, 1.0, 40)])
    xis = rng.uniform(-1.0, 1.0, (40, 2))
    xis[0] = (1.0, 1.0 / metric.light_speed(*points[0]))  # a null covector
    pq = compose(p, q)
    g = metric.inverse_on_covector(points, xis)
    sigma_1, sigma_2 = principal_symbol_1(p, points, xis), principal_symbol_2(pq, points, xis)
    rep = symbol_invertibility(p, points, xis)
    assert g.shape == (40,) and sigma_1.shape == sigma_2.shape == (40, 2, 2)
    for n, (pt, xi) in enumerate(zip(map(tuple, points), map(tuple, xis))):
        assert g[n] == reference_inverse_on_covector(metric, pt, xi) == metric.inverse_on_covector(pt, xi)
        assert np.array_equal(sigma_1[n], reference_symbol_1(p, pt, xi))
        assert np.array_equal(sigma_1[n], principal_symbol_1(p, pt, xi))
        assert np.array_equal(sigma_2[n], reference_symbol_2(pq, pt, xi))
        single = symbol_invertibility(p, pt, xi)
        assert (rep.invertible[n], rep.abs_det[n], rep.condition_estimate[n]) == reference_invertibility(p, pt, xi)
        assert (single.invertible, single.abs_det, single.condition_estimate) == reference_invertibility(p, pt, xi)
        assert type(single.invertible) is bool and type(single.abs_det) is float
    assert not rep.invertible[0] and rep.condition_estimate[0] == np.inf


def test_every_point_is_checked_against_the_chart():
    metric = DiagonalMetric("1", "1", Chart1p1(0.0, 1.0, -1.0, 1.0))
    points = np.array([[0.5, 0.0], [0.2, 0.3], [1.5, 0.0], [2.0, 0.0]])
    with pytest.raises(ChartDomainError, match=r"t=1\.5, x=0\.0"):
        metric.inverse_on_covector(points, np.ones((4, 2)))
    assert metric.inverse_on_covector(points[:2], np.array([[1.0, 0.0], [1.0, 0.5]])).tolist() == [1.0, 0.75]


def test_no_worst_point_when_every_deviation_is_zero():
    cfg = load("minkowski", "dirac_massive")
    pair = is_complementary_pair(*cfg.pair, cfg.spacetime)
    assert (pair.pq.max_deviation, pair.pq.worst_point, pair.pq.worst_covector) == (0.0, None, None)
    assert pair.passed and pair.pq.tol == default_symbol_tol(True, 1.0)
