"""Cauchy solvers: the normal-derivative data construction, the
second-order reduced solve, a direct first-order solve used as an
independent cross-check, restriction to other hypersurfaces and the
compatibility round trip.

Time stepping is classical 4th-order one-step (RK4); space is 2nd-order
centered.  Both time directions are evolved from the initial hypersurface
so the solution fills the whole chart.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING, Optional, Tuple

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

if TYPE_CHECKING:
    from .greens import TestSection

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

class SolverBlowupError(ArithmeticError):
    """An RK4 sweep produced a non-finite solution."""

    def __init__(self, level: int, t: float):
        super().__init__(f"the solution is not finite from time level {level} (t = {t:.6g}) on")
        self.level = level
        self.t = t


def _unforced(times: np.ndarray) -> list:
    return [0.0] * len(times)


def _evolve(rhs, y0, grid: Grid1p1, j0: int, forcing=_unforced) -> GridSection:
    """March the state from level j0 to both ends of the grid; the section
    holds the first state component at every level.  rhs(t, y, f) gets the
    forcing at the stage time t, which forcing(times) gives per sweep for
    all of that sweep's stage times at once."""
    out = np.empty((grid.nt,) + y0[0].shape, dtype=complex)
    out[j0] = y0[0]
    for forward in (True, False):
        _rk4_sweep(rhs, y0, grid, j0, forward, forcing, out)
    return GridSection(grid, out)


def _rk4_sweep(rhs, y0, grid: Grid1p1, j0: int, forward: bool, forcing, out: np.ndarray) -> None:
    """March the state from level j0 to one end of the grid, writing the
    first state component of each level into out.  A step's last stage runs
    at the next level's own time, so that it coincides with the next step's
    first stage.  Raises SolverBlowupError if the final state is not finite:
    a non-finite interior node stays so under the update, so the check at
    the end covers every level."""
    step = 1 if forward else -1
    dt = step * grid.dt
    levels = np.arange(j0, grid.nt - 1) if forward else np.arange(j0, 0, -1)
    if not len(levels):
        return
    # the stage times in order: level, midpoint, level, ..., next level
    times = np.empty(2 * len(levels) + 1)
    times[0::2] = grid.ts[np.append(levels, levels[-1] + step)]
    times[1::2] = grid.ts[levels] + dt / 2
    f = forcing(times)
    y = y0
    for n, j in enumerate(levels.tolist()):
        t, t_mid, t_next = (float(s) for s in times[2 * n:2 * n + 3])
        f_mid = f[2 * n + 1]
        k1 = rhs(t, y, f[2 * n])
        k2 = rhs(t_mid, _axpy(y, dt / 2, k1), f_mid)
        k3 = rhs(t_mid, _axpy(y, dt / 2, k2), f_mid)
        k4 = rhs(t_next, _axpy(y, dt, k3), f[2 * n + 2])
        y = tuple(
            yc + dt / 6 * (a + 2 * b + 2 * c + d)
            for yc, a, b, c, d in zip(y, k1, k2, k3, k4)
        )
        if not grid.periodic:
            for yc in y:
                yc[0] = 0.0
                yc[-1] = 0.0
        out[j + step] = y[0]
    if not all(np.isfinite(yc).all() for yc in y):
        swept = levels + step
        bad = next((j for j in swept.tolist() if not np.isfinite(out[j]).all()), int(swept[-1]))
        raise SolverBlowupError(bad, float(grid.ts[bad]))


def _axpy(y, a, k):
    return tuple(yc + a * kc for yc, kc in zip(y, k))


def _source_forcing(source: "TestSection", xs: np.ndarray):
    """forcing(times) for _evolve: the source sampled in one mesh evaluation
    at the stage times inside its time support, 0.0 at the others, where its
    window vanishes exactly."""
    tape = _expr.Tape(source.components, xs)
    lo, hi = source.t_support

    def forcing(times: np.ndarray) -> list:
        f = _unforced(times)
        inside = np.flatnonzero((times >= lo) & (times <= hi))
        if len(inside):
            for i, row in zip(inside.tolist(), tape.stack(times[inside, None])):
                f[i] = row
        return f

    return forcing


def solve_second_order(
    op: SecondOrderOperator,
    metric: DiagonalMetric,
    grid: Grid1p1,
    phi0_values: np.ndarray,
    dtphi0_values: np.ndarray,
    j0: int,
    source: Optional["TestSection"] = None,
) -> GridSection:
    """Method-of-lines solve of L u = f (f a test section, none for f = 0)
    from data (u, d_t u) at level j0, in both time directions.

    dtphi0_values is the coordinate time derivative d_t u|_Sigma; callers
    working with the frame derivative convert via d_t u = alpha * Psi_0.
    The right-hand side leaves out the coefficient fields that fold to 0
    and the stencils only they need; the remaining terms are subtracted in
    a fixed order, so the result is bit-identical to subtracting all five.
    """
    grid.check_cfl(metric.max_light_speed())
    operands = (
        (op.c_tx.scale(2.0), lambda u, v: d_x(v, grid)),
        (op.c_xx, lambda u, v: d_xx(u, grid)),
        (op.d_t, lambda u, v: v),
        (op.d_x, lambda u, v: d_x(u, grid)),
        (op.e, lambda u, v: u),
    )
    terms = [of for of in operands if not of[0].is_zero]
    coeffs = coefficient_tape([field for field, _ in terms] + [op.c_tt.inverse()], grid.xs)

    def rhs(t, y, f):
        u, v = y
        *cs, inv_tt = coeffs(t)
        load = f
        for c, (_, operand) in zip(cs, terms):
            load = load - contract(c, operand(u, v))
        return (v, contract(inv_tt, load))

    y0 = (phi0_values.astype(complex).copy(), dtphi0_values.astype(complex).copy())
    forcing = _unforced if source is None else _source_forcing(source, grid.xs)
    return _evolve(rhs, y0, grid, j0, forcing)


def solve_first_order_direct(
    p: FirstOrderOperator,
    metric: DiagonalMetric,
    phi0: CauchyData,
    grid: Optional[Grid1p1] = None,
) -> GridSection:
    """Direct method-of-lines evolution of d_t Phi = -(A^t)^{-1}(A^x d_x Phi
    + B Phi), both time directions; independent of the second-order path.
    A B that folds to 0 is left out, bit-identically."""
    grid = grid or phi0.grid
    grid.check_cfl(metric.max_light_speed())
    check_causal_margin(metric, grid, phi0.support, phi0.t0)
    operands = ((p.a_x, lambda u: d_x(u, grid)), (p.effective_b(), lambda u: u))
    terms = [of for of in operands if not of[0].is_zero]
    coeffs = coefficient_tape([field for field, _ in terms] + [p.a_t.inverse()], grid.xs)

    def rhs(t, y, f):
        (u,) = y
        *cs, inv_t = coeffs(t)
        flux = reduce(operator.add, (contract(c, operand(u)) for c, (_, operand) in zip(cs, terms)))
        return (contract(inv_t, -flux),)

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
