"""Cauchy solvers: the normal-derivative data construction, the
second-order reduced solve, a direct first-order solve used as an
independent cross-check, restriction to other hypersurfaces and the
compatibility round trip.

Time stepping is classical 4th-order one-step (RK4); space is 2nd-order
centered.  Both time directions are evolved from the initial hypersurface
so the solution fills the whole chart: the two halves march in lockstep as
one stacked state, each with its own step sign, stage times and forcing,
until the shorter is done; the longer then finishes alone in the same loop.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from . import expr as _expr
from .bundle_ops import (
    FirstOrderOperator,
    MatrixField,
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
# RK4 steps whose stage times one run of a coefficient tape evaluates
BLOCK_STEPS = 16


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
    a_x, b = coefficient_tape((p.a_x, p.b), xs)(t0)
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


class _Half:
    """One time direction of a solve, a member of the stacked state: the
    levels it marches from j0 to one end of the grid, its stage times, the
    forcing at them and, from a zero start state, its first step with a
    forced stage; the levels before that step stay exactly 0 and are not
    marched.  A step's last stage runs at the next level's own time, so
    that it coincides with the next step's first stage."""

    def __init__(self, grid: Grid1p1, j0: int, step: int, forcing, zero_start: bool):
        self.step = step
        self.levels = np.arange(j0, grid.nt - 1) if step > 0 else np.arange(j0, 0, -1)
        self.first = len(self.levels)
        self.end = None  # the state after its last step
        if not len(self.levels):
            return
        # the stage times in order: level, midpoint, level, ..., next level
        self.times = np.empty(2 * len(self.levels) + 1)
        self.times[0::2] = grid.ts[np.append(self.levels, self.levels[-1] + step)]
        self.times[1::2] = grid.ts[self.levels] + step * grid.dt / 2
        self.f = forcing(self.times)
        # step n uses the stages 2n, 2n + 1 and 2n + 2
        forced = next((i for i, fi in enumerate(self.f) if np.any(fi)), len(self.f)) if zero_start else 0
        self.first = max(0, (forced - 1) // 2)


def _evolve(rhs, y0, grid: Grid1p1, j0: int, forcing=_unforced, block=None) -> GridSection:
    """March the state from level j0 to both ends of the grid; the section
    holds the first state component at every level.  rhs(t, y, f) gets the
    stage times t of the stacked halves as a (members, 1) column and the
    forcing f at them (0.0 if no member is forced), which forcing(times)
    gives per half for all of that half's stage times at once.  block, if
    given, gets the stage times of each BLOCK_STEPS steps ahead of their
    rhs calls as a stage-major (S, members, 1) stack.  Raises
    SolverBlowupError if a half's final state is not finite, the forward
    half first: a non-finite interior node stays so under the update, so
    the check at the end covers every level."""
    out = np.empty((grid.nt,) + y0[0].shape, dtype=complex)
    out[j0] = y0[0]
    zero_start = not any(yc.any() for yc in y0)
    halves = [_Half(grid, j0, step, forcing, zero_start) for step in (1, -1)]
    for h in halves:
        out[h.levels[:h.first] + h.step] = 0.0
    _rk4(rhs, y0, [h for h in halves if h.first < len(h.levels)], grid, out, block)
    for h in halves:
        if h.end is not None and not all(np.isfinite(yc).all() for yc in h.end):
            swept = h.levels + h.step
            bad = next((j for j in swept.tolist() if not np.isfinite(out[j]).all()), int(swept[-1]))
            raise SolverBlowupError(bad, float(grid.ts[bad]))
    return GridSection(grid, out)


def _rk4(rhs, y0, halves: list, grid: Grid1p1, out: np.ndarray, block=None) -> None:
    """March the halves in lockstep as one state stacked on a leading axis,
    each from its first step, writing the first state component of each
    level into out, and keep each half's final state as its end.  While
    two halves remain they step together, as many steps as the shorter
    needs; the longer then finishes alone.  Every BLOCK_STEPS steps, block
    gets the stage times of the coming steps, both ends included.

    Each segment marches in buffers of its own, each holding all state
    components: the state, updated in place, and one buffer per later
    stage, since a right-hand side may return a component of its input.
    The stage states and the update y + dt/6 (k1 + 2 k2 + 2 k3 + k4) run
    on the float64 views in the order of the complex formulas, whose
    values they equal: a complex times a real column rounds as each part
    times it."""
    y = np.stack([np.broadcast_to(yc, (len(halves),) + yc.shape) for yc in y0])
    while halves:
        n = min(len(h.levels) - h.first for h in halves)
        firsts = [h.first for h in halves]
        times = np.stack([h.times[2 * i:2 * (i + n) + 1] for h, i in zip(halves, firsts)])
        rows = [h.f[2 * i:2 * (i + n) + 1] for h, i in zip(halves, firsts)]
        targets = np.stack([h.levels[i:i + n] + h.step for h, i in zip(halves, firsts)], axis=1)
        dt = np.array([h.step * grid.dt for h in halves])[:, None, None]
        half_dt, sixth_dt = dt / 2, dt / 6
        # the state and stage buffers as (components, float64 view, the view's components)
        y = np.array(y, dtype=complex, order="C")
        state, *stages = (_buffer(y if b == 0 else np.empty(y.shape, complex)) for b in range(4))
        components, view, _ = state
        like = components[0]
        acc, twice = (np.empty(view.shape) for _ in range(2))
        for s in range(n):
            if block is not None and s % BLOCK_STEPS == 0:
                block(np.ascontiguousarray(times[:, 2 * s:2 * min(s + BLOCK_STEPS, n) + 1].T)[..., None])
            t, t_mid, t_next = (times[:, c:c + 1] for c in range(2 * s, 2 * s + 3))
            f, f_mid, f_next = (_stacked([r[c] for r in rows]) for c in range(2 * s, 2 * s + 3))
            k1 = _views(rhs(t, components, f), like)
            k2 = _views(rhs(t_mid, _axpy(stages[0], view, half_dt, k1), f_mid), like)
            k3 = _views(rhs(t_mid, _axpy(stages[1], view, half_dt, k2), f_mid), like)
            k4 = _views(rhs(t_next, _axpy(stages[2], view, dt, k3), f_next), like)
            # ((2 b + a) + 2 c) + d
            for sc, tc, a, b, c in zip(acc, twice, k1, k2, k3):
                np.multiply(b, 2.0, out=sc)
                sc += a
                np.multiply(c, 2.0, out=tc)
            acc += twice
            for sc, d in zip(acc, k4):
                sc += d
            acc *= sixth_dt
            view += acc
            if not grid.periodic:
                y[..., ::grid.nx - 1, :] = 0.0
            out[targets[s]] = y[0]
        for m, h in enumerate(halves):
            h.first += n
            if h.first == len(h.levels):
                h.end = tuple(yc[m] for yc in y)
        keep = [m for m, h in enumerate(halves) if h.end is None]
        halves = [halves[m] for m in keep]
        y = y[:, keep]


def _buffer(stack: np.ndarray) -> tuple:
    """A stack of state components as the tuple of its components, its
    float64 view and the view's components."""
    view = stack.view(np.float64)
    return tuple(stack), view, tuple(view)


def _views(arrays, like: np.ndarray) -> tuple:
    """The float64 views of the complex arrays a right-hand side returns,
    each of like's shape; a number (the forcing of an operator with no
    lower-order term) is brought to that shape first."""
    return tuple(
        (a if isinstance(a, np.ndarray) and a.shape == like.shape else np.full(like.shape, a, dtype=complex))
        .view(np.float64)
        for a in arrays
    )


def _stacked(rows: list):
    """The members' forcing rows at one stage, stacked; 0.0 if none is
    forced."""
    if all(isinstance(r, float) for r in rows):
        return 0.0
    if len(rows) == 1:
        return rows[0][None]
    return np.stack(np.broadcast_arrays(*rows))


def _axpy(into: tuple, y: np.ndarray, a: np.ndarray, k: tuple) -> tuple:
    """y + a k on float64 views, a a real column, written into the buffer
    into; returns its components."""
    components, view, parts = into
    for part, kc in zip(parts, k):
        np.multiply(kc, a, out=part)
    view += y
    return components


def _scaled(field: MatrixField):
    """(c, w) -> field @ w over the last axis, c the field's value from its
    coefficient tape; a field s Id is applied as a broadcast product,
    decided here once per solve.  For a non-constant s the tape gives every
    diagonal entry the one shared value, and s * w is contract's 0 + s * w;
    a constant s is applied as a number, except one with nonzero real and
    imaginary parts, which keeps the matrix product, whose complex products
    round differently."""
    s = field.scalar
    if s is None and field.diagonal is not None:
        return lambda c, w: c[0][2][..., None] * w
    if s is None or (s.real and s.imag):
        return contract
    if s == 1:
        return lambda c, w: w
    return lambda c, w: s * w


def _subtractor(field: MatrixField):
    """(load, c, w) -> load - field @ w, with a constant +-Id field applied
    as its sign."""
    s = field.scalar
    if s == 1:
        return lambda load, c, w: load - w
    if s == -1:
        return lambda load, c, w: load + w
    scaled = _scaled(field)
    return lambda load, c, w: load - scaled(c, w)


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
    and the stencils only they need, and applies constant c Id fields as
    numbers; the remaining terms are subtracted in a fixed order, so the
    result is bit-identical to subtracting all five matrix products.
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
    subtracts = [_subtractor(field) for field, _ in terms]
    inverse_tt = op.c_tt.inverse()
    solve_tt = _scaled(inverse_tt)
    coeffs = coefficient_tape([field for field, _ in terms] + [inverse_tt], grid.xs)

    def rhs(t, y, f):
        u, v = y
        *cs, inv_tt = coeffs(t)
        load = f
        for c, subtract, (_, operand) in zip(cs, subtracts, terms):
            load = subtract(load, c, operand(u, v))
        return (v, solve_tt(inv_tt, load))

    y0 = (phi0_values.astype(complex).copy(), dtphi0_values.astype(complex).copy())
    forcing = _unforced if source is None else _source_forcing(source, grid.xs)
    return _evolve(rhs, y0, grid, j0, forcing, coeffs.block)


def solve_first_order_direct(
    p: FirstOrderOperator,
    metric: DiagonalMetric,
    phi0: CauchyData,
    grid: Optional[Grid1p1] = None,
) -> GridSection:
    """Direct method-of-lines evolution of d_t Phi = -(A^t)^{-1}(A^x d_x Phi
    + B Phi), both time directions; independent of the second-order path.
    A B that folds to 0 is left out and constant c Id fields are applied as
    numbers, bit-identically."""
    grid = grid or phi0.grid
    grid.check_cfl(metric.max_light_speed())
    check_causal_margin(metric, grid, phi0.support, phi0.t0)
    operands = ((p.a_x, lambda u: d_x(u, grid)), (p.b, lambda u: u))
    terms = [of for of in operands if not of[0].is_zero]
    products = [_scaled(field) for field, _ in terms]
    inverse_t = p.a_t.inverse()
    solve_t = _scaled(inverse_t)
    coeffs = coefficient_tape([field for field, _ in terms] + [inverse_t], grid.xs)

    def rhs(t, y, f):
        (u,) = y
        *cs, inv_t = coeffs(t)
        flux = reduce(operator.add, (product(c, operand(u)) for c, product, (_, operand) in zip(cs, products, terms)))
        return (solve_t(inv_t, -flux),)

    return _evolve(rhs, (phi0.values.astype(complex).copy(),), grid, phi0.level, block=coeffs.block)


# ---------------------------------------------------------------------------
# the full first-order Cauchy solve via the second-order reduction

def support_leak(phi: GridSection, shadow: CausalShadow, reference: float) -> float:
    """Max |Phi| outside the (inflated) shadow, relative to reference."""
    grid = phi.grid
    mask = shadow.outside_mask(grid.ts[:, None], grid.xs)
    worst = float(np.max(np.abs(phi.values[mask]), initial=0.0))
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
    report = SolveReport(res_l2, res_linf, trace, leak)
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
    lo, hi = shadow.bounds_at(t_level)
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
