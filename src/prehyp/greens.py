"""Advanced and retarded Green's operators.

Green's operators are realized as driven solves per test section (never as
assembled kernels): the retarded solution of L u = phi integrates forward
from zero data before the source, the advanced one backward from zero data
after it.  For a complementary pair (P, Q), S+- = Q applied to the Green's
solution of PQ is the Green's operator of P.  solve_driven and
greens_apply take a list of (source, direction) jobs: the driven solves a
battery needs of one operator march as one stacked state.  A job may
also name the span (lo, hi) of levels its reader reads: its march stops
at the ends of that span, and its solution is 0 outside it.  A solution
holds only the levels where it can be nonzero, and a test section those
of its time support (grids.GridSection); greens_report and
adjoint_pairing_check apply Q to one solution at a time, reduce it and
release it before the next.

S+ is unique, so adjoint_pairing_check's S+ f is greens_report's retarded
S+ phi when f is phi: greens_report hands S+- phi on with its report, and
adjoint_pairing_check takes S+ f from its caller when the caller holds
it.  Otherwise it solves S+ f over the levels the pairing reads, in the
march of its dual pair S'-+ psi where P* Q* has the fields of PQ (for
the Dirac pair, where d_x alpha and d_t beta are 0): then both are one
normally hyperbolic operator, whose Green's operators one march gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple, Union

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
from .grids import (
    Grid1p1,
    GridSection,
    check_temporal_margin,
    squared_norm,
    window_expr,
    window_support,
)


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
    def _sampled(self) -> GridSection:
        ts = self.grid.ts
        inside = np.flatnonzero((ts >= self.t_support[0]) & (ts <= self.t_support[1]))
        if not len(inside):
            return GridSection(self.grid, np.zeros((0, self.grid.nx, self.k), dtype=complex))
        first, stop = int(inside[0]), int(inside[-1]) + 1
        return GridSection(self.grid, _expr.Tape(self.components, self.grid.xs).stack(ts[first:stop, None]), first)

    def as_section(self) -> GridSection:
        """The section sampled on the grid, held on the levels inside the
        time support: outside it the window is 0, and so are the values."""
        return self._sampled

    @property
    def values(self) -> np.ndarray:
        """The levels the sampled section holds, (levels, nx, k)."""
        return self._sampled.values

    def linf(self) -> float:
        return self._sampled.linf()


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


def relative_l2(a, ref, grid: Grid1p1, start: int = 0, stop: Optional[int] = None) -> float:
    """The L2 norm of a - ref relative to that of ref, over the levels
    start..stop-1 of the mesh (all of them by default), a and ref
    sections or whole-mesh arrays, from grids.squared_norm: no complex
    difference of the mesh's size."""
    num = np.sqrt(squared_norm(a, ref, start, stop)[0] * grid.dx * grid.dt)
    den = np.sqrt(squared_norm(ref, None, start, stop)[0] * grid.dx * grid.dt)
    return float(num / den) if den > 0 else float(num)


def _left_inverse_residual(p: FirstOrderOperator, phi: TestSection, s_phi: GridSection) -> float:
    grid = s_phi.grid
    return relative_l2(apply_operator(p, s_phi), phi.as_section(), grid, 1, grid.nt - 1)


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
    return relative_l2(s_p_psi, psi.as_section(), s_p_psi.grid)


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
    they measure.  The driven solves of phi and of P phi march as one, and
    Q is applied to one solution at a time, each released once reduced:
    identity (ii) first, then S+- phi, which is returned."""
    grid = grid or phi.grid
    solutions = solve_driven(compose(p, q), metric, [(phi, direction), (apply_analytic(p, phi), direction)], grid)
    identity_ii = _right_inverse_residual(phi, apply_operator(q, solutions.pop()))
    s_phi = apply_operator(q, solutions.pop())
    identity_i = _left_inverse_residual(p, phi, s_phi)
    leak = support_leak(s_phi, source_shadow(metric, grid, phi, direction), s_phi.linf())
    return GreensReport(identity_i, identity_ii, leak), s_phi


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
    s_plus_f: Optional[GridSection] = None,
    grid: Optional[Grid1p1] = None,
) -> AdjointReport:
    """The relative gap between <S'_- psi, f> and <psi, S_+ f> for the
    bilinear pairing, the dual side through the formal adjoints P*, Q*;
    and its negative control, the gap with S'_+ in place of S'_-, which
    must not vanish.  The pairing reads S_+ f only where psi is nonzero,
    and S'_-+ psi only where f is, so each Green's solve marches over the
    stencil_span of the other section's time support.  s_plus_f is S_+ f
    when the caller holds it (over more levels serves as well), else None:
    then S_+ f is solved here, in the march of S'_- psi and S'_+ psi where
    P* Q* has the fields of PQ, else in a march of its own, paired and
    released before the dual march."""
    grid = grid or f.grid
    p_star, q_star = formal_adjoint(p, metric), formal_adjoint(q, metric)
    op, dual_op = compose(p, q), compose(p_star, q_star)
    span = stencil_span(grid, f.t_support)
    dual = [(psi, "advanced", span), (psi, "retarded", span)]
    joint = s_plus_f is None and op.same_fields(dual_op)
    if s_plus_f is None:
        s_plus = (f, "retarded", stencil_span(grid, psi.t_support))
        solutions = solve_driven(op, metric, [s_plus] + (dual if joint else []), grid)
        s_plus_f = apply_operator(q, solutions.pop(0))
    rhs = pairing(psi.as_section(), s_plus_f, metric, grid)
    del s_plus_f  # released before the dual march, unless the caller holds it
    if not joint:
        solutions = solve_driven(dual_op, metric, dual, grid)
    lhs, control = (pairing(apply_operator(q_star, solutions.pop(0)), f.as_section(), metric, grid) for _ in dual)
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
    return squared_norm(s1, s2)[1]
