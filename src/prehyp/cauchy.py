"""Cauchy solvers: the normal-derivative data construction, the
second-order reduced solve, a direct first-order solve used as an
independent cross-check, restriction to other hypersurfaces and the
compatibility round trip.

Time stepping is classical 4th-order one-step (RK4); space is 2nd-order
centered.  Both time directions are evolved from the initial hypersurface
so the solution fills the whole chart.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import expr as _expr
from .bundle_ops import (
    FirstOrderOperator,
    SecondOrderOperator,
    apply_operator,
    coefficient_tape,
    compose,
    contract,
    is_complementary_pair,
)
from .geometry import CauchyLine, CausalShadow, DiagonalMetric
from .grids import (
    CauchyData,
    Grid1p1,
    GridSection,
    check_causal_margin,
    d_x,
    d_xx,
)

SHADOW_INFLATION_NODES = 4


class PrenormalHyperbolicityError(ValueError):
    """sigma_P of the normal covector is singular along the hypersurface."""


class PairCheckError(ValueError):
    """The supplied operators fail the complementary-pair predicate."""


@dataclass
class SolveReport:
    residual_l2: float
    residual_linf: float
    trace_defect: float
    support_leak: float
    wall_time: float


# ---------------------------------------------------------------------------
# normal derivative data (the Psi_0 construction)

def normal_derivative_data(
    p: FirstOrderOperator, metric: DiagonalMetric, phi0: CauchyData
) -> CauchyData:
    """Psi_0 = -[sigma_P(n^b)]^{-1} (sigma_P tangential d Phi_0 + B Phi_0),
    the unique frame covariant-normal derivative making (P Phi)|_Sigma = 0.

    In the 1+1 orthonormal frame this reduces to
    Psi_0 = -(alpha A^t)^{-1} (A^x d_x Phi_0 + B Phi_0).
    Its support is contained in the support of Phi_0.
    """
    grid, t0, xs = phi0.grid, phi0.t0, phi0.grid.xs
    alpha = np.broadcast_to(np.asarray(metric.alpha(t0, xs), dtype=complex), (grid.nx,))
    sigma_n = alpha[:, None, None] * p.a_t.eval(t0, xs)  # (nx, k, k)
    if np.any(np.abs(np.linalg.det(sigma_n)) < 1e-12):
        raise PrenormalHyperbolicityError("sigma_P(normal covector) singular along the hypersurface")
    a_x, b = coefficient_tape((p.a_x, p.effective_b()), xs)(t0)
    rhs = contract(a_x, d_x(phi0.values, grid)) + contract(b, phi0.values)
    psi = -np.linalg.solve(sigma_n, rhs[..., None])[..., 0]
    # the window is identically zero outside the declared support, so the
    # derivative carries no content there; mask to keep the support exact
    outside = (xs < phi0.support[0]) | (xs > phi0.support[1])
    psi[outside] = 0.0
    return CauchyData(grid, t0, psi, phi0.support)


# ---------------------------------------------------------------------------
# evolution cores

def _evolve(rhs, y0, grid: Grid1p1, j0: int) -> GridSection:
    """March the state from level j0 to both ends of the grid; the section
    holds the first state component at every level."""
    fwd = _rk4_sweep(rhs, y0, grid, j0, True)
    bwd = _rk4_sweep(rhs, y0, grid, j0, False)
    return GridSection(grid, np.stack([(fwd if j >= j0 else bwd)[j][0] for j in range(grid.nt)]))


def _rk4_sweep(rhs, y0, grid: Grid1p1, j0: int, forward: bool):
    """March the state from level j0 to one end of the grid; returns the
    states indexed by level.  A step's last stage runs at the next level's
    own time, so that it coincides with the next step's first stage."""
    step = 1 if forward else -1
    dt = step * grid.dt
    levels = range(j0, grid.nt - 1) if forward else range(j0, 0, -1)
    states = {j0: y0}
    y = y0
    for j in levels:
        t = float(grid.ts[j])
        k1 = rhs(t, y)
        k2 = rhs(t + dt / 2, _axpy(y, dt / 2, k1))
        k3 = rhs(t + dt / 2, _axpy(y, dt / 2, k2))
        k4 = rhs(float(grid.ts[j + step]), _axpy(y, dt, k3))
        y = tuple(
            yc + dt / 6 * (a + 2 * b + 2 * c + d)
            for yc, a, b, c, d in zip(y, k1, k2, k3, k4)
        )
        if not grid.periodic:
            for yc in y:
                yc[0] = 0.0
                yc[-1] = 0.0
        states[j + step] = y
    return states


def _axpy(y, a, k):
    return tuple(yc + a * kc for yc, kc in zip(y, k))


def solve_second_order(
    op: SecondOrderOperator,
    metric: DiagonalMetric,
    grid: Grid1p1,
    phi0_values: np.ndarray,
    dtphi0_values: np.ndarray,
    j0: int,
    source: Sequence["_expr.ExprAst"] = (),
) -> GridSection:
    """Method-of-lines solve of L u = f (one expression per component, none
    for f = 0) from data (u, d_t u) at level j0, in both time directions.

    dtphi0_values is the coordinate time derivative d_t u|_Sigma; callers
    working with the frame derivative convert via d_t u = alpha * Psi_0.
    """
    grid.check_cfl(metric.max_light_speed())
    coeffs = coefficient_tape((op.c_tx.scale(2.0), op.c_xx, op.d_t, op.d_x, op.e, op.c_tt.inverse()), grid.xs)
    forcing = _expr.Tape(source, grid.xs) if source else None

    def rhs(t, y):
        u, v = y
        c_tx2, c_xx, dt_c, dx_c, e_c, inv_tt = coeffs(t)
        ux = d_x(u, grid)
        uxx = d_xx(u, grid)
        vx = d_x(v, grid)
        f = forcing.stack(t) if forcing is not None else 0.0
        load = f - contract(c_tx2, vx) - contract(c_xx, uxx) - contract(dt_c, v) - contract(dx_c, ux) - contract(e_c, u)
        return (v.copy(), contract(inv_tt, load))

    y0 = (phi0_values.astype(complex).copy(), dtphi0_values.astype(complex).copy())
    return _evolve(rhs, y0, grid, j0)


def solve_first_order_direct(
    p: FirstOrderOperator,
    metric: DiagonalMetric,
    phi0: CauchyData,
    grid: Optional[Grid1p1] = None,
) -> GridSection:
    """Direct method-of-lines evolution of d_t Phi = -(A^t)^{-1}(A^x d_x Phi
    + B Phi), both time directions; independent of the second-order path."""
    grid = grid or phi0.grid
    grid.check_cfl(metric.max_light_speed())
    check_causal_margin(metric, grid, phi0.support, phi0.t0)
    coeffs = coefficient_tape((p.a_x, p.effective_b(), p.a_t.inverse()), grid.xs)

    def rhs(t, y):
        (u,) = y
        a_x, b, inv_t = coeffs(t)
        return (contract(inv_t, -(contract(a_x, d_x(u, grid)) + contract(b, u))),)

    return _evolve(rhs, (phi0.values.astype(complex).copy(),), grid, phi0.level)


# ---------------------------------------------------------------------------
# the full first-order Cauchy solve via the second-order reduction

def support_leak(phi: GridSection, shadow: CausalShadow, reference: float) -> float:
    """Max |Phi| outside the (inflated) shadow, relative to reference."""
    grid = phi.grid
    worst = 0.0
    for j, t in enumerate(grid.ts):
        mask = shadow.outside_mask(float(t), grid.xs)
        if mask.any():
            worst = max(worst, float(np.max(np.abs(phi.values[j][mask]))))
    return worst / reference if reference > 0 else worst


def solve_cauchy(
    p: FirstOrderOperator,
    q: FirstOrderOperator,
    metric: DiagonalMetric,
    phi0: CauchyData,
    grid: Optional[Grid1p1] = None,
    check_pair: bool = True,
) -> Tuple[GridSection, SolveReport]:
    """Solve P Phi = 0, Phi|_Sigma = Phi_0 through the second-order
    reduction: build Psi_0, solve (QP) Phi = 0 with the pair of data, and
    verify the residual, trace and support properties."""
    grid = grid or phi0.grid
    start = time.perf_counter()
    if check_pair:
        report = is_complementary_pair(p, q, metric)
        if not report.passed:
            raise PairCheckError(
                f"(P, Q) is not a complementary pair (max deviation {report.max_deviation:.3e})"
            )
    shadow = check_causal_margin(metric, grid, phi0.support, phi0.t0)
    psi0 = normal_derivative_data(p, metric, phi0)
    alpha = np.broadcast_to(
        np.asarray(metric.alpha(phi0.t0, grid.xs), dtype=complex), (grid.nx,)
    )
    dtphi0 = alpha[:, None] * psi0.values  # frame to coordinate conversion
    qp = compose(q, p)
    phi = solve_second_order(qp, metric, grid, phi0.values, dtphi0, phi0.level)

    residual = apply_operator(p, phi)
    interior = residual.values[1:-1]
    res_l2 = float(np.sqrt(np.sum(np.abs(interior) ** 2) * grid.dx * grid.dt))
    res_linf = float(np.max(np.abs(interior)))
    trace = float(np.max(np.abs(residual.values[phi0.level])))
    leak = support_leak(phi, shadow.inflate(SHADOW_INFLATION_NODES * grid.dx), phi0.linf())
    report = SolveReport(res_l2, res_linf, trace, leak, time.perf_counter() - start)
    return phi, report


# ---------------------------------------------------------------------------
# restriction and the compatibility round trip

def restrict(
    phi: GridSection,
    sigma_prime: CauchyLine,
    metric: DiagonalMetric,
    phi0: CauchyData,
) -> CauchyData:
    """Copy the solution at the grid level nearest sigma_prime; the declared
    support is the causal shadow of the original data at that level.

    Values outside the declared support (pure scheme leakage, at most the
    finite-propagation leak) are zeroed so the result is again compactly
    supported Cauchy data.
    """
    grid = phi.grid
    j = grid.level_of(sigma_prime.t0)
    t_level = float(grid.ts[j])
    shadow = check_causal_margin(metric, grid, phi0.support, phi0.t0).inflate(
        SHADOW_INFLATION_NODES * grid.dx
    )
    union = shadow.intervals_at(t_level)
    lo = min(iv[0] for iv in union)
    hi = max(iv[1] for iv in union)
    values = phi.values[j].copy()
    mask = shadow.outside_mask(t_level, grid.xs)
    values[mask] = 0.0
    return CauchyData(grid, t_level, values, (lo, hi))


@dataclass
class RoundTripReport:
    round_trip_error: float
    intermediate_support: Tuple[float, float]


def compatibility_round_trip(
    p: FirstOrderOperator,
    q: FirstOrderOperator,
    metric: DiagonalMetric,
    phi0: CauchyData,
    sigma: CauchyLine,
    sigma_prime: CauchyLine,
    grid: Optional[Grid1p1] = None,
    check_pair: bool = True,
) -> RoundTripReport:
    """Solve from Sigma, restrict to Sigma', re-solve from Sigma', restrict
    back; reports the L-infinity distance from the original data."""
    grid = grid or phi0.grid
    phi, _ = solve_cauchy(p, q, metric, phi0, grid, check_pair=check_pair)
    data_prime = restrict(phi, sigma_prime, metric, phi0)
    phi_back, _ = solve_cauchy(p, q, metric, data_prime, grid, check_pair=False)
    data_back = restrict(phi_back, sigma, metric, data_prime)
    err = float(np.max(np.abs(data_back.values - phi0.values)))
    return RoundTripReport(err, data_prime.support)
