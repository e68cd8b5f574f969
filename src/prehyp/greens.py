"""Advanced and retarded Green's operators.

Green's operators are realized as driven solves per test section (never as
assembled kernels): the retarded solution of L u = phi integrates forward
from zero data before the source, the advanced one backward from zero data
after it.  For a complementary pair (P, Q), S+- = Q applied to the Green's
solution of PQ is the Green's operator of P.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple, Union

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
from .cauchy import SHADOW_INFLATION_NODES, solve_second_order, support_leak
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


def solve_driven(
    op: SecondOrderOperator,
    metric: DiagonalMetric,
    source: TestSection,
    direction: str,
    grid: Optional[Grid1p1] = None,
) -> GridSection:
    """Retarded: integrate L u = phi forward from zero data before the
    source; advanced: backward from zero data after it."""
    if direction not in ("retarded", "advanced"):
        raise ValueError(f"unknown direction {direction!r}")
    grid = grid or source.grid
    check_temporal_margin(grid, source.t_support)
    zeros = np.zeros((grid.nx, source.k), dtype=complex)
    j0 = 0 if direction == "retarded" else grid.nt - 1
    return solve_second_order(op, metric, grid, zeros, zeros, j0, source=source)


def greens_apply(
    p: FirstOrderOperator,
    q: FirstOrderOperator,
    metric: DiagonalMetric,
    phi: TestSection,
    direction: str,
    grid: Optional[Grid1p1] = None,
) -> GridSection:
    """S+- phi = Q (G+- phi) where G+- is the Green's solve for the
    normally hyperbolic composition PQ."""
    grid = grid or phi.grid
    u = solve_driven(compose(p, q), metric, phi, direction, grid)
    return apply_operator(q, u)


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
    return _left_inverse_residual(p, phi, greens_apply(p, q, metric, phi, direction, grid))


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
    p_psi = apply_analytic(p, psi)
    s_p_psi = greens_apply(p, q, metric, p_psi, direction, grid)
    r = s_p_psi.values - psi.values
    return relative_l2(r, psi.values, grid)


def greens_report(
    p: FirstOrderOperator,
    q: FirstOrderOperator,
    metric: DiagonalMetric,
    phi: TestSection,
    direction: str,
    grid: Optional[Grid1p1] = None,
) -> GreensReport:
    """Identity (i), P(S+- phi) = phi, and the relative leak of S+- phi
    outside J+-(supp phi), from one driven solve; identity (ii),
    S+-(P phi) = phi, from a second."""
    grid = grid or phi.grid
    s_phi = greens_apply(p, q, metric, phi, direction, grid)
    identity_i = _left_inverse_residual(p, phi, s_phi)
    leak = support_leak(s_phi, source_shadow(metric, grid, phi, direction), s_phi.linf())
    del s_phi  # released before the second solve
    return GreensReport(identity_i, identity_ii_residual(p, q, metric, phi, direction, grid), leak)


def _relative_gap(a: complex, b: complex) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else abs(a - b)


def adjoint_pairing_check(
    p: FirstOrderOperator,
    q: FirstOrderOperator,
    metric: DiagonalMetric,
    psi: TestSection,
    f: TestSection,
    grid: Optional[Grid1p1] = None,
) -> AdjointReport:
    """The relative gap between <S'_- psi, f> and <psi, S_+ f> for the
    bilinear pairing, the dual side through the formal adjoints P*, Q*;
    and its negative control, the gap with S'_+ in place of S'_-, which
    must not vanish.  Three driven solves: S_+ f, S'_- psi, S'_+ psi; the
    two dual sides share one composition P* Q*."""
    grid = grid or f.grid
    q_star = formal_adjoint(q, metric)
    dual_op = compose(formal_adjoint(p, metric), q_star)
    rhs = pairing(psi.as_section(), greens_apply(p, q, metric, f, "retarded", grid), metric, grid)

    def dual_side(direction: str) -> complex:
        s_psi = apply_operator(q_star, solve_driven(dual_op, metric, psi, direction, grid))
        return pairing(s_psi, f.as_section(), metric, grid)

    lhs = dual_side("advanced")
    control = _relative_gap(dual_side("retarded"), rhs)
    return AdjointReport(_relative_gap(lhs, rhs), lhs, rhs, control)


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
    s1 = greens_apply(p, q, metric, phi, direction, grid)
    s2 = greens_apply(p, q_alt, metric, phi, direction, grid)
    return float(np.max(np.abs(s1.values - s2.values)))
