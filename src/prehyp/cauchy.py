"""Cauchy solvers: the Cauchy datum d_t Phi_0, the second-order reduced
solve, a direct first-order solve used as an independent cross-check,
restriction to other hypersurfaces and the compatibility round trip.

The reduced solve comes plain (solve_cauchy_plain) or verified
(solve_cauchy): the verified one also checks the pair and measures the
residual of P, its trace on Sigma and the support leak of the solution.
A caller that would discard those figures solves plain.

One builder, _right_hand_side, turns an operator into a right-hand side:
both solvers march one, and the datum d_t Phi_0 that makes
(P Phi)|_Sigma = 0 is the direct solve's right-hand side at t0.

Time stepping is classical 4th-order one-step (RK4); space is 2nd-order
centered.  A march evolves a list of starts of one operator, each a state
at a level and its forcing, with one output per start, marched from its
level to both ends of the grid.  A Cauchy solve is one start; a driven
solve is a start at an end of the grid, so it marches in one direction.
Every direction of every start is a member of one stacked RK4 state, with
its own start state, step sign, stage times and forcing; the members step
in lockstep, each leaving the stack when its last level is done, and one
coefficient tape serves them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Tuple

import numpy as np

from . import expr as _expr
from .bundle_ops import (
    FirstOrderOperator,
    MatrixField,
    SecondOrderOperator,
    apply_operator,
    coefficient_tape,
    compose,
    is_complementary_pair,
    product,
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
# the Cauchy datum d_t Phi_0

def normal_derivative_data(
    p: FirstOrderOperator, metric: DiagonalMetric, phi0: CauchyData
) -> CauchyData:
    """d_t Phi_0 = -(A^t)^{-1} (A^x d_x Phi_0 + B Phi_0), the unique
    coordinate time derivative making (P Phi)|_Sigma = 0: the right-hand
    side of the direct first-order solve at t0.  Raises
    PrenormalHyperbolicityError where sigma_P of the unit normal covector,
    alpha A^t, is singular on the nodes.  Its support is contained in the
    support of Phi_0.
    """
    grid, t0, xs = phi0.grid, phi0.t0, phi0.grid.xs
    alpha = np.broadcast_to(np.asarray(metric.alpha(t0, xs), dtype=complex), (grid.nx,))
    sigma_n = alpha[:, None, None] * p.a_t.eval(t0, xs)  # (nx, k, k)
    if np.any(np.abs(np.linalg.det(sigma_n)) < 1e-12):
        raise PrenormalHyperbolicityError("sigma_P(normal covector) singular along the hypersurface")
    rhs, coeffs = _first_order_rhs(p, grid)
    (dt_phi,) = rhs(coeffs(t0), (phi0.values,), np.zeros(phi0.values.shape, dtype=complex))
    # the window is identically zero outside the declared support, so the
    # derivative carries no content there; mask to keep the support exact
    outside = (xs < phi0.support[0]) | (xs > phi0.support[1])
    dt_phi[outside] = 0.0
    return CauchyData(grid, t0, dt_phi, phi0.support)


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


@dataclass
class _Start:
    """One solution of a march: the state y0 at level j0, marched from
    there in both directions, and the forcing at its stage times, which
    forcing(times) gives per direction for all of that direction's stage
    times at once.  A start at an end of the grid has nothing to march
    towards that end."""

    y0: tuple
    j0: int
    forcing: Callable = _unforced


class _Member:
    """One direction of a start, a member of the stacked state: the levels
    it marches from j0 to one end of the grid, its stage times, the forcing
    at them, the start's output and, from a zero start state, its first
    step with a forced stage; the levels before that step stay exactly 0
    and are not marched.  A step's last stage runs at the next level's own
    time, so that it coincides with the next step's first stage."""

    def __init__(self, grid: Grid1p1, start: _Start, step: int, out: np.ndarray, zero_start: bool):
        self.y0 = start.y0
        self.step = step
        self.out = out
        self.levels = np.arange(start.j0, grid.nt - 1) if step > 0 else np.arange(start.j0, 0, -1)
        self.first = len(self.levels)
        self.end = None  # the state after its last step
        if not len(self.levels):
            return
        # the stage times in order: level, midpoint, level, ..., next level
        self.times = np.empty(2 * len(self.levels) + 1)
        self.times[0::2] = grid.ts[np.append(self.levels, self.levels[-1] + step)]
        self.times[1::2] = grid.ts[self.levels] + step * grid.dt / 2
        self.f = start.forcing(self.times)
        # step n uses the stages 2n, 2n + 1 and 2n + 2
        forced = next((i for i, fi in enumerate(self.f) if np.any(fi)), len(self.f)) if zero_start else 0
        self.first = max(0, (forced - 1) // 2)

    def check_finite(self, grid: Grid1p1) -> None:
        """Raise SolverBlowupError at the first level of this direction
        that is not finite, if its final state is not: a non-finite
        interior node stays so under the update, so the final state covers
        every level."""
        if self.end is not None and not all(np.isfinite(yc).all() for yc in self.end):
            swept = self.levels + self.step
            bad = next((j for j in swept.tolist() if not np.isfinite(self.out[j]).all()), int(swept[-1]))
            raise SolverBlowupError(bad, float(grid.ts[bad]))


def _march(rhs, stages, grid: Grid1p1, starts: list) -> list:
    """March every start from its level to both ends of the grid, all as
    one stacked state; returns, per start, the section holding the first
    state component at every level.  rhs(c, y, f) gets the coefficient
    values c at the stage times of the stacked members and the forcing f
    at them (0.0 if no member is forced).  stages(ts) gives the
    coefficient values at each stage time of a stage-major (S, members, 1)
    stack ts (coefficient_tape's at.stages).  Raises SolverBlowupError for
    the first start, forward before backward, whose final state is not
    finite.  Every operation acts on each member alone, so a start's
    solution does not depend on the others marched with it."""
    outs, members = [], []
    for start in starts:
        out = np.empty((grid.nt,) + start.y0[0].shape, dtype=complex)
        out[start.j0] = start.y0[0]
        zero_start = not any(yc.any() for yc in start.y0)
        for step in (1, -1):
            m = _Member(grid, start, step, out, zero_start)
            out[m.levels[:m.first] + step] = 0.0
            members.append(m)
        outs.append(out)
    _rk4(rhs, stages, [m for m in members if m.first < len(m.levels)], grid)
    for m in members:
        m.check_finite(grid)
    return [GridSection(grid, out) for out in outs]


def _rk4(rhs, stages, members: list, grid: Grid1p1) -> None:
    """March the members in lockstep as one state stacked on a leading
    axis, each from its first step and from its own start state, writing
    the first state component of each level into the member's output, and
    keep each member's final state as its end.  The members step together
    as many steps as the one with the fewest left needs; it leaves the
    stack, and the rest go on.  Every BLOCK_STEPS steps, stages gives the
    coefficient values at the stage times of the coming steps, both ends
    included, and step j of the block gets stages 2j, 2j + 1 and 2j + 2.

    Each segment marches in buffers of its own, each holding all state
    components: the state, updated in place, and one buffer per later
    stage, since a right-hand side may return a component of its input.
    The stage states and the update y + dt/6 (k1 + 2 k2 + 2 k3 + k4) run
    on the float64 views in the order of the complex formulas, whose
    values they equal: a complex times a real column rounds as each part
    times it."""
    if not members:
        return
    y = np.stack([np.stack([m.y0[c] for m in members]) for c in range(len(members[0].y0))])
    while members:
        n = min(len(m.levels) - m.first for m in members)
        firsts = [m.first for m in members]
        times = np.stack([m.times[2 * i:2 * (i + n) + 1] for m, i in zip(members, firsts)])
        rows = [m.f[2 * i:2 * (i + n) + 1] for m, i in zip(members, firsts)]
        targets = np.stack([m.levels[i:i + n] + m.step for m, i in zip(members, firsts)], axis=1).tolist()
        outs = [m.out for m in members]
        dt = np.array([m.step * grid.dt for m in members])[:, None, None]
        half_dt, sixth_dt = dt / 2, dt / 6
        # the state and stage buffers as (components, float64 view, the view's components)
        y = np.array(y, dtype=complex, order="C")
        state, *buffers = (_buffer(y if b == 0 else np.empty(y.shape, complex)) for b in range(4))
        components, view, _ = state
        like = components[0]
        acc, twice = (np.empty(view.shape) for _ in range(2))
        for s in range(n):
            j = s % BLOCK_STEPS
            if j == 0:
                block = stages(np.ascontiguousarray(times[:, 2 * s:2 * min(s + BLOCK_STEPS, n) + 1].T)[..., None])
            cf, cf_mid, cf_next = block[2 * j:2 * j + 3]
            f, f_mid, f_next = (_stacked([r[c] for r in rows]) for c in range(2 * s, 2 * s + 3))
            k1 = _views(rhs(cf, components, f), like)
            k2 = _views(rhs(cf_mid, _axpy(buffers[0], view, half_dt, k1), f_mid), like)
            k3 = _views(rhs(cf_mid, _axpy(buffers[1], view, half_dt, k2), f_mid), like)
            k4 = _views(rhs(cf_next, _axpy(buffers[2], view, dt, k3), f_next), like)
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
            for out, j, row in zip(outs, targets[s], y[0]):
                out[j] = row
        for i, m in enumerate(members):
            m.first += n
            if m.first == len(m.levels):
                m.end = tuple(yc[i] for yc in y)
        keep = [i for i, m in enumerate(members) if m.end is None]
        members = [members[i] for i in keep]
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


def _subtractor(field: MatrixField):
    """(load, c, w) -> load - field @ w, with a constant +-Id field applied
    as its sign.  A load that is the number 0.0, an unforced stage's, is
    not added: the result is the term -field @ w alone."""
    s = field.scalar
    if s == 1:
        return lambda load, c, w: -w if isinstance(load, float) else load - w
    if s == -1:
        return lambda load, c, w: w if isinstance(load, float) else load + w
    apply = product(field)
    return lambda load, c, w: -apply(c, w) if isinstance(load, float) else load - apply(c, w)


def _source_forcing(source: "TestSection", xs: np.ndarray):
    """forcing(times) for a _Start: the source sampled in one mesh evaluation
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


def _right_hand_side(lead: MatrixField, terms, xs: np.ndarray):
    """The right-hand side of lead d_t y[-1] = f - sum field operand(*y) and
    its coefficient tape on the nodes xs: rhs(c, y, f) = (*y[1:], lead^{-1}
    (f - sum field operand(*y))), c the tape's values.  The terms whose
    field folds to 0, and so the stencils only their operands need, are
    left out, and constant c Id fields are applied as numbers
    (bundle_ops.product); the rest are subtracted in order, from the first
    term where f is the number 0.0, so the result equals subtracting every
    matrix product from f (zeros may differ in sign)."""
    terms = [(field, operand) for field, operand in terms if not field.is_zero]
    subtracts = [_subtractor(field) for field, _ in terms]
    inverse = lead.inverse()
    solve = product(inverse)
    coeffs = coefficient_tape([field for field, _ in terms] + [inverse], xs)

    def rhs(c, y, f):
        *cs, inv = c
        load = f
        for cf, subtract, (_, operand) in zip(cs, subtracts, terms):
            load = subtract(load, cf, operand(*y))
        return (*y[1:], solve(inv, load))

    return rhs, coeffs


def _first_order_rhs(p: FirstOrderOperator, grid: Grid1p1):
    """d_t u = (A^t)^{-1} (f - A^x d_x u - B u) and its coefficient tape."""
    return _right_hand_side(p.a_t, ((p.a_x, lambda u: d_x(u, grid)), (p.b, lambda u: u)), grid.xs)


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
    from data (u, d_t u) at level j0, in both time directions."""
    return _solve_second_order(op, metric, grid, [(phi0_values, dtphi0_values, j0, source)])[0]


def _solve_second_order(op: SecondOrderOperator, metric: DiagonalMetric, grid: Grid1p1, starts: list) -> list:
    """solve_second_order for several starts (u, d_t u, j0, source)
    marched as one stacked state; one section per start."""
    grid.check_cfl(metric.max_light_speed())
    rhs, coeffs = _right_hand_side(op.c_tt, (
        (op.c_tx.scale(2.0), lambda u, v: d_x(v, grid)),
        (op.c_xx, lambda u, v: d_xx(u, grid)),
        (op.d_t, lambda u, v: v),
        (op.d_x, lambda u, v: d_x(u, grid)),
        (op.e, lambda u, v: u),
    ), grid.xs)
    return _march(rhs, coeffs.stages, grid, [
        _Start(
            (np.asarray(u0, dtype=complex), np.asarray(v0, dtype=complex)), j0,
            _unforced if source is None else _source_forcing(source, grid.xs),
        )
        for u0, v0, j0, source in starts
    ])


def solve_first_order_direct(
    p: FirstOrderOperator,
    metric: DiagonalMetric,
    phi0: CauchyData,
    grid: Optional[Grid1p1] = None,
) -> GridSection:
    """Direct method-of-lines evolution of d_t Phi = -(A^t)^{-1}(A^x d_x Phi
    + B Phi), both time directions.  Its right-hand side at t0 is the
    reduced solve's datum d_t Phi_0 (normal_derivative_data); what stays
    independent is the evolution, of the first-order system here against
    the second-order reduction (QP) Phi = 0 there."""
    grid = grid or phi0.grid
    grid.check_cfl(metric.max_light_speed())
    check_causal_margin(metric, grid, phi0.support, phi0.t0)
    rhs, coeffs = _first_order_rhs(p, grid)
    return _march(rhs, coeffs.stages, grid, [_Start((np.asarray(phi0.values, dtype=complex),), phi0.level)])[0]


# ---------------------------------------------------------------------------
# the full first-order Cauchy solve via the second-order reduction

def support_leak(phi: GridSection, shadow: CausalShadow, reference: float) -> float:
    """Max |Phi| outside the (inflated) shadow, relative to reference."""
    grid = phi.grid
    mask = shadow.outside_mask(grid.ts[:, None], grid.xs)
    worst = float(np.max(np.abs(phi.values[mask]), initial=0.0))
    return worst / reference if reference > 0 else worst


def solve_cauchy_plain(
    p: FirstOrderOperator,
    q: FirstOrderOperator,
    metric: DiagonalMetric,
    phi0: CauchyData,
    grid: Optional[Grid1p1] = None,
) -> GridSection:
    """Solve P Phi = 0, Phi|_Sigma = Phi_0 through the second-order
    reduction: build d_t Phi_0 and solve (QP) Phi = 0 with the pair of
    data.  It checks the causal margin, the CFL condition, prenormal
    hyperbolicity and blow-up, but neither the pair nor the solution:
    solve_cauchy does both."""
    grid = grid or phi0.grid
    check_causal_margin(metric, grid, phi0.support, phi0.t0)
    dtphi0 = normal_derivative_data(p, metric, phi0)
    return solve_second_order(compose(q, p), metric, grid, phi0.values, dtphi0.values, phi0.level)


def solve_cauchy(
    p: FirstOrderOperator,
    q: FirstOrderOperator,
    metric: DiagonalMetric,
    phi0: CauchyData,
    grid: Optional[Grid1p1] = None,
) -> Tuple[GridSection, SolveReport]:
    """solve_cauchy_plain for a checked complementary pair, and the
    verification of its solution: the residual of P, its trace on Sigma and
    the support leak outside the inflated causal shadow of the data."""
    grid = grid or phi0.grid
    report = is_complementary_pair(p, q, metric)
    if not report.passed:
        raise PairCheckError(
            f"(P, Q) is not a complementary pair (max deviation {report.max_deviation:.3e})"
        )
    phi = solve_cauchy_plain(p, q, metric, phi0, grid)

    residual = apply_operator(p, phi)
    interior = residual.values[1:-1]
    res_l2 = float(np.sqrt(np.sum(np.abs(interior) ** 2) * grid.dx * grid.dt))
    res_linf = float(np.max(np.abs(interior)))
    trace = float(np.max(np.abs(residual.values[phi0.level])))
    # the plain solve's shadow, which the metric keeps
    shadow = check_causal_margin(metric, grid, phi0.support, phi0.t0)
    leak = support_leak(phi, shadow.inflate(SHADOW_INFLATION_NODES * grid.dx), phi0.linf())
    return phi, SolveReport(res_l2, res_linf, trace, leak)


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
) -> RoundTripReport:
    """Solve from Sigma, restrict to Sigma', re-solve from Sigma', restrict
    back; reports the L-infinity distance from the original data.  The
    first solve checks the pair; the second is plain, since its report
    would not be read."""
    grid = grid or phi0.grid
    phi, _ = solve_cauchy(p, q, metric, phi0, grid)
    data_prime = restrict(phi, sigma_prime, metric, phi0)
    phi_back = solve_cauchy_plain(p, q, metric, data_prime, grid)
    data_back = restrict(phi_back, sigma, metric, data_prime)
    err = float(np.max(np.abs(data_back.values - phi0.values)))
    return RoundTripReport(err, data_prime.support)
