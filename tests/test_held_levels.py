"""Each producer of a section holds only the levels where it can be
nonzero (GridSection.first and stop), and so peaks at less than a whole
mesh: a march's output over its span, or from its first forced step for
a start from zero data; a test section over its time support; and
apply_operator's output over the stencil window of the levels its input
holds.  A driven march samples its source one block of stage times at a
time, so no member's forcing rows are held whole, and greens_report
applies Q to one solution at a time.  At nx 256."""

import numpy as np
import pytest

from conftest import traced_peak
from prehyp import cauchy, grids
from prehyp.bundle_ops import apply_operator, compose
from prehyp.cauchy import solve_cauchy_plain
from prehyp.geometry import DiagonalMetric
from prehyp.grids import build_grid, make_cauchy_data
from prehyp.greens import apply_analytic, greens_report, make_test_section, solve_driven
from prehyp.qft_dirac import DiracModel, build_dirac_pair

METRICS = {"flat": ("1", "1"), "readme": ("1+0.1*sin(t)", "1+0.3*cos(2*x)")}
X_WINDOW, T_WINDOW = (0.0, 0.05, 2.5), (0.0, 0.03, 10.0)


@pytest.fixture(params=sorted(METRICS))
def case(request, chart):
    metric = DiagonalMetric(*METRICS[request.param], chart)
    p, q = build_dirac_pair(DiracModel(mass=1.0), metric)
    grid = build_grid(chart, metric, 256)
    return metric, p, q, grid, make_test_section(grid, ["1", "0.5"], X_WINDOW, T_WINDOW)


def mesh_bytes(grid):
    return grid.nt * grid.nx * 2 * 16


def inside(grid, t_support):
    """The levels [a, b) inside a time support."""
    levels = np.flatnonzero((grid.ts >= t_support[0]) & (grid.ts <= t_support[1]))
    return int(levels[0]), int(levels[-1]) + 1


def test_a_spanned_cauchy_solve_holds_its_span(case):
    metric, p, q, grid, _ = case
    phi0 = make_cauchy_data(grid, ["1", "0.5"], 0.0)
    span = (phi0.level - 20, phi0.level + 30)
    solve_cauchy_plain(p, q, metric, phi0, grid, span)  # the march's set-up, kept on the operator
    u, peak = traced_peak(lambda: solve_cauchy_plain(p, q, metric, phi0, grid, span))
    assert (u.first, u.stop) == (span[0], span[1] + 1) and u.values[[0, -1]].any()
    assert peak < mesh_bytes(grid)


@pytest.mark.parametrize("direction", ["retarded", "advanced"])
def test_a_driven_solution_holds_the_levels_from_its_first_forced_step(case, direction):
    metric, p, q, grid, phi = case
    u = solve_driven(compose(p, q), metric, [(phi, direction)], grid)[0]
    # the first step with a stage inside the time support: the one from the
    # last level before it, whose next level is the first inside
    a, b = inside(grid, phi.t_support)
    held = (a, grid.nt) if direction == "retarded" else (0, b)
    assert (u.first, u.stop) == held
    assert u.values.nbytes < 0.8 * mesh_bytes(grid)


def test_a_test_section_holds_its_time_support(case):
    _, _, _, grid, phi = case
    section, peak = traced_peak(phi.as_section)
    assert (section.first, section.stop) == inside(grid, phi.t_support)
    assert section.values.any() and peak < mesh_bytes(grid)


def test_apply_operator_holds_the_stencil_window_of_its_input(case):
    metric, p, q, grid, phi = case
    u = solve_driven(compose(p, q), metric, [(phi, "retarded", (40, 150))], grid)[0]
    assert 40 < u.first and u.stop == 151
    out, peak = traced_peak(lambda: apply_operator(q, u))
    assert (out.first, out.stop) == (u.first - 1, u.stop + 1)
    # its output, three block buffers and the coefficients on its levels
    assert peak < out.values.nbytes + 4 * grids.BLOCK_BYTES


def test_a_two_job_driven_march_holds_one_block_of_forcing_rows(case):
    # beyond its two outputs the march holds one block of forcing rows, the
    # source tape's values on one block of stage times (P phi's take about
    # 1.3 blocks) and its stage buffers (under one block), where the two
    # members' whole forcing rows alone would be more
    metric, p, q, grid, phi = case
    op, jobs = compose(p, q), [(phi, "retarded"), (apply_analytic(p, phi), "retarded")]
    solve_driven(op, metric, jobs, grid)
    solutions, peak = traced_peak(lambda: solve_driven(op, metric, jobs, grid))
    level = grid.nx * 2 * 16
    block = (2 * cauchy.BLOCK_STEPS + 1) * len(jobs) * level
    rows = 2 * (inside(grid, phi.t_support)[1] - inside(grid, phi.t_support)[0]) * level
    assert 2 * rows > 4 * block
    assert peak <= sum(u.values.nbytes for u in solutions) + 4 * block


def test_greens_report_holds_under_four_meshes(case):
    # G phi and G P phi, then Q applied to one of them at a time, the
    # residual's float array and the test sections' levels
    metric, p, q, grid, phi = case
    greens_report(p, q, metric, phi, "retarded", grid)
    _, peak = traced_peak(lambda: greens_report(p, q, metric, phi, "retarded", grid))
    assert peak < 4 * mesh_bytes(grid)
