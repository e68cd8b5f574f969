"""Advanced and retarded Green's operators.

Green's operators are realized as driven solves per test section (never as
assembled kernels): the retarded solution of L u = phi integrates forward
from zero data before the source, the advanced one backward from zero data
after it.  For a complementary pair (P, Q), S+- = Q applied to the Green's
solution of PQ is the Green's operator of P.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

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
from .cauchy import solve_second_order, support_leak
from .geometry import CausalShadow, DiagonalMetric, causal_shadow
from .grids import (
    BOUNDARY_MARGIN_NODES,
    Grid1p1,
    GridSection,
    MarginError,
    plateau_window,
    window_support,
)

Profile = Callable[[float, np.ndarray], np.ndarray]


@dataclass
class TestSection:
    """A compactly supported smooth section with a declared support box in
    (t, x) and an analytic profile for stage-exact evaluation."""

    grid: Grid1p1
    values: np.ndarray  # (nt, nx, k)
    t_support: Tuple[float, float]
    x_support: Tuple[float, float]
    profile: Profile

    @property
    def k(self) -> int:
        return self.values.shape[2]

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
    asts = [
        _expr.parse(c) if isinstance(c, str) else c for c in components
    ]
    k = len(asts)
    xc, xw, xs_ = x_window
    tc, tw, ts_ = t_window

    def profile(t: float, xs: np.ndarray) -> np.ndarray:
        wt = plateau_window(np.asarray([t]), tc, tw, ts_)[0]
        out = np.zeros((len(xs), k), dtype=complex)
        if wt == 0.0:
            return out
        wx = plateau_window(xs, xc, xw, xs_)
        for c, ast in enumerate(asts):
            out[:, c] = np.broadcast_to(
                np.asarray(_expr.evaluate(ast, t, xs), dtype=complex), (len(xs),)
            ) * wx * wt
        return out

    values = np.stack([profile(float(t), grid.xs) for t in grid.ts])
    return TestSection(
        grid,
        values,
        window_support(tc, tw, ts_),
        window_support(xc, xw, xs_),
        profile,
    )


def _check_temporal_margin(grid: Grid1p1, t_support: Tuple[float, float]) -> None:
    margin = BOUNDARY_MARGIN_NODES * grid.dt
    if t_support[0] < grid.ts[0] + margin or t_support[1] > grid.ts[-1] - margin:
        raise MarginError(
            f"source time window {t_support} reaches within "
            f"{BOUNDARY_MARGIN_NODES} levels of the temporal boundary"
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
    _check_temporal_margin(grid, source.t_support)
    k = source.k
    zeros = np.zeros((grid.nx, k), dtype=complex)
    j0 = 0 if direction == "retarded" else grid.nt - 1

    def src(t: float) -> np.ndarray:
        return source.profile(t, grid.xs)

    return solve_second_order(op, metric, grid, zeros, zeros, j0, source=src)


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


def apply_analytic(
    p: FirstOrderOperator, section: TestSection, h: float = 1e-6
) -> TestSection:
    """P applied to the analytic profile of a test section, via small-step
    centered differences; effectively exact for smooth profiles."""
    grid = section.grid
    b_eff = p.effective_b()

    def profile(t: float, xs: np.ndarray) -> np.ndarray:
        dpt = (section.profile(t + h, xs) - section.profile(t - h, xs)) / (2 * h)
        dpx = (section.profile(t, xs + h) - section.profile(t, xs - h)) / (2 * h)
        a_t, a_x, b = (f.eval(t, xs) for f in (p.a_t, p.a_x, b_eff))
        v = section.profile(t, xs)
        return np.einsum("nij,nj->ni", a_t, dpt) + np.einsum("nij,nj->ni", a_x, dpx) + np.einsum("nij,nj->ni", b, v)

    values = np.stack([profile(float(t), grid.xs) for t in grid.ts])
    return TestSection(grid, values, section.t_support, section.x_support, profile)


# ---------------------------------------------------------------------------
# verification battery

@dataclass
class GreensReport:
    identity_i_residual: float
    identity_ii_residual: float
    support_leak: float
    pairing_defect: float


def source_shadow(
    metric: DiagonalMetric, grid: Grid1p1, section: TestSection, direction: str
) -> CausalShadow:
    """J_+ or J_- of the section's support box, inflated by the stencil
    margin."""
    t_seed = section.t_support[0] if direction == "retarded" else section.t_support[1]
    dirword = "future" if direction == "retarded" else "past"
    shadow = causal_shadow(metric, section.x_support, float(t_seed), dirword, dt=grid.dt)
    return shadow.inflate(4 * grid.dx)


def relative_l2(diff: np.ndarray, ref: np.ndarray, grid: Grid1p1) -> float:
    num = np.sqrt(np.sum(np.abs(diff) ** 2) * grid.dx * grid.dt)
    den = np.sqrt(np.sum(np.abs(ref) ** 2) * grid.dx * grid.dt)
    return float(num / den) if den > 0 else float(num)


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
    s_phi = greens_apply(p, q, metric, phi, direction, grid)
    r = apply_operator(p, s_phi).values[1:-1] - phi.values[1:-1]
    return relative_l2(r, phi.values[1:-1], grid)


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


def identity_iii_leak(
    p: FirstOrderOperator,
    q: FirstOrderOperator,
    metric: DiagonalMetric,
    phi: TestSection,
    direction: str,
    grid: Optional[Grid1p1] = None,
) -> float:
    """Relative leak of S+- phi outside J+-(supp phi)."""
    grid = grid or phi.grid
    s_phi = greens_apply(p, q, metric, phi, direction, grid)
    shadow = source_shadow(metric, grid, phi, direction)
    return support_leak(s_phi, shadow, float(np.max(np.abs(s_phi.values))))


def adjoint_pairing_check(
    p: FirstOrderOperator,
    q: FirstOrderOperator,
    metric: DiagonalMetric,
    psi: TestSection,
    f: TestSection,
    grid: Optional[Grid1p1] = None,
    direction: str = "retarded",
    mismatch_directions: bool = False,
) -> Tuple[float, complex, complex]:
    """Compare <S'_dual psi, f> with <psi, S f> for the bilinear pairing;
    the dual side runs through the formal adjoints P*, Q*.

    With direction="retarded" the primal side is S_+ and the dual side
    S'_-; mismatch_directions flips the dual side (negative control).
    Returns (relative defect, dual-side value, primal-side value).
    """
    grid = grid or f.grid
    p_star = formal_adjoint(p, metric)
    q_star = formal_adjoint(q, metric)
    primal = greens_apply(p, q, metric, f, direction, grid)
    dual_direction = "advanced" if direction == "retarded" else "retarded"
    if mismatch_directions:
        dual_direction = direction
    dual = greens_apply(p_star, q_star, metric, psi, dual_direction, grid)
    lhs = pairing(dual, f.as_section(), metric, grid)
    rhs = pairing(psi.as_section(), primal, metric, grid)
    scale = max(abs(lhs), abs(rhs))
    defect = abs(lhs - rhs) / scale if scale > 0 else abs(lhs - rhs)
    return defect, lhs, rhs


def greens_report(
    p: FirstOrderOperator,
    q: FirstOrderOperator,
    metric: DiagonalMetric,
    phi: TestSection,
    psi_dual: TestSection,
    direction: str,
    grid: Optional[Grid1p1] = None,
) -> GreensReport:
    grid = grid or phi.grid
    defect, _, _ = adjoint_pairing_check(p, q, metric, psi_dual, phi, grid, direction)
    return GreensReport(
        identity_i_residual(p, q, metric, phi, direction, grid),
        identity_ii_residual(p, q, metric, phi, direction, grid),
        identity_iii_leak(p, q, metric, phi, direction, grid),
        defect,
    )


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
