"""A bundle of rank 4: the direct sum of two Dirac pairs, with
block-diagonal fields.  Every operation of a march, of apply_operator and
of the source sampling acts on each component through the entries of its
own block, so the rank-4 solutions are, block by block, the solutions of
the two rank-2 pairs: equal under np.array_equal on the levels they hold
(zeros may differ in sign).

On Minkowski the two pairs have different masses, so E of the rank-4
square and B of its Q are diagonal but not s Id, and are contracted entry
by entry where the rank-2 runs apply a number.  On the README metric the
masses are equal: E = m^2 Id is folded into the three-point x-operator
(cauchy._ThreePoint) only where it is s Id, and a rank-4 E with two
masses would be a term of its own, a different sum.  There C^tt = s Id
depends on t, and MatrixField.inverse gives (1/s) Id at either rank."""

import numpy as np
import pytest

from prehyp import greens
from prehyp.bundle_ops import FirstOrderOperator, MatrixField
from prehyp.cauchy import solve_cauchy
from prehyp.expr import ZERO
from prehyp.geometry import DiagonalMetric
from prehyp.grids import build_grid, make_cauchy_data
from prehyp.greens import adjoint_pairing_check, greens_report, make_test_section
from prehyp.qft_dirac import DiracModel, build_dirac_pair

CASES = {"flat": (("1", "1"), (1.0, 0.7)), "readme": (("1+0.1*sin(t)", "1+0.3*cos(2*x)"), (1.0, 1.0))}
X_WINDOW, T_WINDOW = (0.0, 0.05, 2.5), (0.0, 0.02, 10.0)
DUAL_X, DUAL_T = (0.05, 0.05, 2.5), (0.03, 0.02, 10.0)
# the components of the data and sources of the two blocks
BLOCKS = (["1", "0.5"], ["cos(3*x)", "-0.25+x"])


def direct_sum(a: MatrixField, b: MatrixField) -> MatrixField:
    rows = [list(r) + [ZERO] * b.k for r in a.entries] + [[ZERO] * a.k + list(r) for r in b.entries]
    return MatrixField(rows)


def direct_sum_pair(first, second):
    return tuple(
        FirstOrderOperator.build(*(direct_sum(getattr(x, f), getattr(y, f)) for f in ("a_t", "a_x", "b")))
        for x, y in zip(first, second)
    )


def driven_solutions(monkeypatch):
    """Every solution greens.solve_driven returns, in order."""
    made = []
    real = greens.solve_driven

    def recording(*args):
        solutions = real(*args)
        made.extend(solutions)
        return solutions

    monkeypatch.setattr(greens, "solve_driven", recording)
    return made


def runs(monkeypatch, metric, grid, p, q, blocks):
    """The Cauchy solve, greens_report's driven solutions and S+ phi, and
    adjoint-check's driven solutions, of the pair (p, q) on data and
    sources whose components are the blocks'."""
    comps = [c for block in blocks for c in block]
    phi0 = make_cauchy_data(grid, comps, 0.0)
    made = driven_solutions(monkeypatch)
    phi = make_test_section(grid, comps, X_WINDOW, T_WINDOW)
    psi = make_test_section(grid, [c for block in blocks for c in block[::-1]], DUAL_X, DUAL_T)
    solution = solve_cauchy(p, q, metric, phi0, grid)[0]
    s_phi = greens_report(p, q, metric, phi, "retarded", grid)[1]
    adjoint_pairing_check(p, q, metric, psi, phi, None, grid)
    return [solution, s_phi] + made


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_rank_4_direct_sum_marches_as_its_two_rank_2_blocks(monkeypatch, chart, case):
    (alpha, beta), masses = CASES[case]
    metric = DiagonalMetric(alpha, beta, chart)
    grid = build_grid(chart, metric, 128)
    pairs = [build_dirac_pair(DiracModel(mass=m), metric) for m in masses]
    p, q = direct_sum_pair(*pairs)
    assert p.k == 4 and (case == "readme") == (p.b.diagonal is not None)
    whole = runs(monkeypatch, metric, grid, p, q, BLOCKS)
    # the rank-2 runs take the block's components, in the order the
    # rank-4 run gives each block
    alone = [runs(monkeypatch, metric, grid, *pair, [block]) for pair, block in zip(pairs, BLOCKS)]
    # the Cauchy solve, S+ phi, greens' G phi and G P phi, adjoint-check's
    # G f with its two dual solutions
    assert len(whole) == 7 and all(len(a) == 7 for a in alone)
    for n, u in enumerate(whole):
        assert np.isfinite(u.values).all() and np.abs(u.values).max() > 0
        for c, a in zip((slice(0, 2), slice(2, 4)), (alone[0][n], alone[1][n])):
            assert (u.first, u.stop) == (a.first, a.stop)
            assert np.abs(a.values).max() > 0 and np.array_equal(u.values[..., c], a.values)
