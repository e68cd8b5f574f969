"""Advanced and retarded Green's operators.

Green's operators are realized as driven solves per test section (never as
assembled kernels): the retarded solution of L u = phi integrates forward
from zero data before the source, the advanced one backward from zero data
after it.  For a complementary pair (P, Q), S+- = Q applied to the Green's
solution of PQ is the Green's operator of P.  solve_driven and
greens_apply take a list of (source, direction) jobs: the driven solves a
battery needs of one operator march as one stacked state.  A job may
also name the span (lo, hi) of levels its reader reads: its march stops
at the ends of that span, and its solution is 0 outside it.

S+ is unique, so adjoint_pairing_check's S+ f is greens_report's retarded
S+ phi when f is phi: greens_report hands S+- phi on with its report, and
adjoint_pairing_check takes S+ f from a callable of its caller, which
solves it only when no such solution is at hand, over the levels the
pairing reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import expr as _expr
from .bundle_ops import (
    FirstOrderOperator,
    SecondOrderOperator,
    apply_operator,
    compose,
    formal_adjoint,
    pairing,
)
from .cauchy import SHADOW_INFLATION_NODES, _solve_second_order, support_leak
from .geometry import CausalShadow, DiagonalMetric
from .grids import Grid1p1, GridSection, MarginError, check_temporal_margin, window_expr, window_support


@dataclass
class TestSection:
    """A compactly supported smooth section: one folded expression per
    bundle component, with a declared support box in (t, x)."""

    grid: Grid1p1
    components: Tuple["_expr.ExprAst", ...]
    t_support: Tuple[float, float]
    x_support: Tuple[float, float]

    @property
    def k(self) -> int:
        return len(self.components)

    @cached_property
    def values(self) -> np.ndarray:
        """The section sampled on the grid: (nt, nx, k)."""
        return _expr.Tape(self.components, self.grid.xs).stack(self.grid.ts[:, None])

    def as_section(self) -> GridSection:
        return GridSection(self.grid, self.values)

    def linf(self) -> float:
        return float(np.max(np.abs(self.values)))


def make_test_section(
    grid: Grid1p1,
    components: Sequence[Union[str, "_expr.ExprAst"]],
    x_window: Tuple[float, float, float],
    t_window: Tuple[float, float, float],
) -> TestSection:
    """Build phi(t, x) = window_t(t) window_x(x) * components(t, x)."""
    window = _expr.fold(_expr.Bin("*", window_expr("t", *t_window), window_expr("x", *x_window)))
    return TestSection(
        grid,
        tuple(_expr.fold(_expr.Bin("*", _expr.simplify(_expr.as_ast(c)), window)) for c in components),
        window_support(*t_window),
        window_support(*x_window),
    )


def _job(source: TestSection, direction: str, span: Optional[Tuple[int, int]] = None) -> tuple:
    return source, direction, span


def solve_driven(op: SecondOrderOperator, metric: DiagonalMetric, jobs: list, grid: Grid1p1) -> List[GridSection]:
    """For each (source, direction) or (source, direction, span) job,
    retarded: integrate L u = phi forward from zero data before the
    source; advanced: backward from zero data after it.  A span (lo, hi)
    stops the march at its end, and the solution is 0 outside it: only the
    caller that chose it reads the solution.  The jobs march as one
    stacked state with one coefficient tape; one solution per job, each
    equal to the job's solution marched alone."""
    starts = []
    for source, direction, span in (_job(*job) for job in jobs):
        if direction not in ("retarded", "advanced"):
            raise ValueError(f"unknown direction {direction!r}")
        check_temporal_margin(grid, source.t_support)
        zeros = np.zeros((grid.nx, source.k), dtype=complex)
        # from the end of the grid before the source; the other direction
        # has no levels to march
        j0 = 0 if direction == "retarded" else grid.nt - 1
        starts.append((zeros, zeros, j0, source, span))
    return _solve_second_order(op, metric, grid, starts)


def greens_apply(
    p: FirstOrderOperator, q: FirstOrderOperator, metric: DiagonalMetric, jobs: list, grid: Grid1p1
) -> List[GridSection]:
    """S+- phi = Q (G+- phi) for each (phi, direction) job, where G+- is the
    Green's solve for the normally hyperbolic composition PQ; the jobs'
    solves march as one (solve_driven).  A job's span is that of G+- phi:
    Q's t-stencil makes the first and last of its levels wrong, so a
    reader widens its span by a level each side (stencil_span)."""
    solutions = solve_driven(compose(p, q), metric, jobs, grid)
    # each solution is released once Q has been applied to it
    return [apply_operator(q, solutions.pop(0)) for _ in jobs]


def apply_analytic(p: FirstOrderOperator, section: TestSection) -> TestSection:
    """P applied to a test section exactly: A^t d_t phi + A^x d_x phi
    + B phi, with the derivatives taken by expr.diff."""
    phi = section.components
    col = [_expr.diff(c, "t") for c in phi] + [_expr.diff(c, "x") for c in phi] + list(phi)
    rows = zip(p.a_t.entries, p.a_x.entries, p.b.entries)
    p_phi = tuple(_expr.dot(r_t + r_x + r_b, col) for r_t, r_x, r_b in rows)
    return TestSection(section.grid, p_phi, section.t_support, section.x_support)


# ---------------------------------------------------------------------------
# verification battery

@dataclass
class GreensReport:
    """The Green's battery for one direction, keyed as in the report."""

    identity_i: float
    identity_ii: float
    support_leak: float


@dataclass
class AdjointReport:
    """The adjoint battery, keyed as in the report."""

    defect: float
    lhs: complex
    rhs: complex
    mismatch_control: float


def source_cone(
    metric: DiagonalMetric, grid: Grid1p1, x_support: Tuple[float, float],
    t_support: Tuple[float, float], direction: str,
) -> CausalShadow:
    """J_+ of the support box from the start of its time support
    (retarded), or J_- from its end (advanced)."""
    if direction == "retarded":
        return metric.shadow(x_support, t_support[0], "future", grid.dt)
    return metric.shadow(x_support, t_support[1], "past", grid.dt)


def source_shadow(
    metric: DiagonalMetric, grid: Grid1p1, section: TestSection, direction: str
) -> CausalShadow:
    """The source_cone of the section's support box, inflated by the
    stencil margin."""
    shadow = source_cone(metric, grid, section.x_support, section.t_support, direction)
    return shadow.inflate(SHADOW_INFLATION_NODES * grid.dx)


def check_source_cones(
    metric: DiagonalMetric, grid: Grid1p1, x_support: Tuple[float, float], t_support: Tuple[float, float]
) -> None:
    """Validate that both source cones of a support box stay inside the
    chart, as the driven solves and their leak need them; raises
    MarginError.  Unlike the shadow of Cauchy data they may come within
    BOUNDARY_MARGIN_NODES nodes of the boundary: they start at the ends of
    the source's time support, wider than a shadow from its centre, and
    the window tails that reach so far leave the Green's identities well
    inside their gates."""
    for direction in ("retarded", "advanced"):
        if source_cone(metric, grid, x_support, t_support, direction).truncated:
            raise MarginError(f"the {direction} source cone leaves the chart")


def relative_l2(diff: np.ndarray, ref: np.ndarray, grid: Grid1p1) -> float:
    num = np.sqrt(np.sum(np.abs(diff) ** 2) * grid.dx * grid.dt)
    den = np.sqrt(np.sum(np.abs(ref) ** 2) * grid.dx * grid.dt)
    return float(num / den) if den > 0 else float(num)


def _left_inverse_residual(p: FirstOrderOperator, phi: TestSection, s_phi: GridSection) -> float:
    r = apply_operator(p, s_phi).values[1:-1] - phi.values[1:-1]
    return relative_l2(r, phi.values[1:-1], s_phi.grid)


def identity_i_residual(
    p: FirstOrderOperator,
    q: FirstOrderOperator,
    metric: DiagonalMetric,
    phi: TestSection,
    direction: str,
    grid: Optional[Grid1p1] = None,
) -> float:
    """Relative L2 residual of P(S+- phi) = phi."""
    grid = grid or phi.grid
    return _left_inverse_residual(p, phi, greens_apply(p, q, metric, [(phi, direction)], grid)[0])


def _right_inverse_residual(psi: TestSection, s_p_psi: GridSection) -> float:
    return relative_l2(s_p_psi.values - psi.values, psi.values, s_p_psi.grid)


def identity_ii_residual(
    p: FirstOrderOperator,
    q: FirstOrderOperator,
    metric: DiagonalMetric,
    psi: TestSection,
    direction: str,
    grid: Optional[Grid1p1] = None,
) -> float:
    """Relative L2 residual of S+-(P psi) = psi for compactly supported psi."""
    grid = grid or psi.grid
    return _right_inverse_residual(psi, greens_apply(p, q, metric, [(apply_analytic(p, psi), direction)], grid)[0])


def greens_report(
    p: FirstOrderOperator,
    q: FirstOrderOperator,
    metric: DiagonalMetric,
    phi: TestSection,
    direction: str,
    grid: Optional[Grid1p1] = None,
) -> Tuple[GreensReport, GridSection]:
    """Identity (i), P(S+- phi) = phi, and the relative leak of S+- phi
    outside J+-(supp phi); identity (ii), S+-(P phi) = phi; and the S+- phi
    they measure.  The driven solves of phi and of P phi march as one."""
    grid = grid or phi.grid
    s_phi, s_p_phi = greens_apply(p, q, metric, [(phi, direction), (apply_analytic(p, phi), direction)], grid)
    identity_i = _left_inverse_residual(p, phi, s_phi)
    leak = support_leak(s_phi, source_shadow(metric, grid, phi, direction), s_phi.linf())
    return GreensReport(identity_i, _right_inverse_residual(phi, s_p_phi), leak), s_phi


def stencil_span(grid: Grid1p1, t_support: Tuple[float, float]) -> Optional[Tuple[int, int]]:
    """The levels inside t_support, where a section with that time support
    can be nonzero, and one level each side for the t-stencil of
    apply_operator: the span of the driven march whose S+- a pairing with
    that section reads.  None, the whole grid, if no level is inside."""
    inside = np.flatnonzero((grid.ts >= t_support[0]) & (grid.ts <= t_support[1]))
    if not len(inside):
        return None
    return max(int(inside[0]) - 1, 0), min(int(inside[-1]) + 1, grid.nt - 1)


def _relative_gap(a: complex, b: complex) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else abs(a - b)


def adjoint_pairing_check(
    p: FirstOrderOperator,
    q: FirstOrderOperator,
    metric: DiagonalMetric,
    psi: TestSection,
    f: TestSection,
    s_plus_f: Callable[[Optional[Tuple[int, int]]], GridSection],
    grid: Optional[Grid1p1] = None,
) -> AdjointReport:
    """The relative gap between <S'_- psi, f> and <psi, S_+ f> for the
    bilinear pairing, the dual side through the formal adjoints P*, Q*;
    and its negative control, the gap with S'_+ in place of S'_-, which
    must not vanish.  The pairing reads S_+ f only where psi is nonzero,
    and S'_-+ psi only where f is.  S_+ f comes from s_plus_f(span), span
    the stencil_span of psi's time support (a solution over more levels
    serves as well), which is called first; its solution is released once
    <psi, S_+ f> is taken, before S'_- psi and S'_+ psi of P* Q* march as
    one over the stencil_span of f's."""
    grid = grid or f.grid
    rhs = pairing(psi.as_section(), s_plus_f(stencil_span(grid, psi.t_support)), metric, grid)
    span = stencil_span(grid, f.t_support)
    dual = greens_apply(
        formal_adjoint(p, metric), formal_adjoint(q, metric), metric,
        [(psi, "advanced", span), (psi, "retarded", span)], grid,
    )
    lhs, control = (pairing(s_psi, f.as_section(), metric, grid) for s_psi in dual)
    return AdjointReport(_relative_gap(lhs, rhs), lhs, rhs, _relative_gap(control, rhs))


def uniqueness_probe(
    p: FirstOrderOperator,
    q: FirstOrderOperator,
    q_alt: FirstOrderOperator,
    metric: DiagonalMetric,
    phi: TestSection,
    direction: str,
    grid: Optional[Grid1p1] = None,
) -> float:
    """Sup distance between the Green's applications built from two
    complementary partners of the same P; vanishes under refinement."""
    grid = grid or phi.grid
    s1 = greens_apply(p, q, metric, [(phi, direction)], grid)[0]
    s2 = greens_apply(p, q_alt, metric, [(phi, direction)], grid)[0]
    return float(np.max(np.abs(s1.values - s2.values)))
