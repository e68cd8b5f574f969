"""Cauchy solvers: the Cauchy datum d_t Phi_0, the second-order reduced
solve, a direct first-order solve used as an independent cross-check,
restriction to other hypersurfaces and the compatibility round trip.

The reduced solve comes plain (solve_cauchy_plain) or verified
(solve_cauchy): the verified one also checks the pair and measures the
residual of P, its trace on Sigma and the support leak of the solution.
A caller that would discard those figures solves plain.

One builder, _right_hand_side, turns an operator into a right-hand side,
a program: both solvers march one, and the datum d_t Phi_0 that makes
(P Phi)|_Sigma = 0 is the direct solve's right-hand side at t0, the
program run once on a one-member state.

Time stepping is classical 4th-order one-step (RK4); space is 2nd-order
centered.  A march evolves a list of starts of one operator, each a state
at a level and its forcing, with one output per start, marched from its
level to both ends of its span of levels: the whole grid, or fewer where
the solution's only reader reads fewer (a pairing reads it only where
the other section is nonzero, a Cauchy-line product only on its lines),
as solve_cauchy_plain and greens.solve_driven's jobs take it.  The rows
outside the span hold 0, and only the function that chose the span
reads the solution.  A Cauchy solve is one start; a driven solve is a
start at an end of the grid, so it marches in one direction.
Every direction of every start is a member of one stacked RK4 state, with
its own start state, step sign, stage times and forcing; the members step
in lockstep, each leaving the stack when its last level is done, and one
coefficient tape serves them all.  Each lockstep segment allocates its
buffers once (the stage states, each with the derivative of its last
component as one more component, the stencil outputs, the products and
the forcing rows of a block) and takes each view once, so a step is a
fixed sequence of ufunc calls with out=, in the order of the formulas it
replaces, whose values it equals.  The stage states and the update act on
all components at once, and a stencil's two edge rows, one-sided on a
line or wrapped around on a circle, take three calls.
"""

from __future__ import annotations

import functools
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
from .grids import CauchyData, Grid1p1, GridSection, _stencil, check_causal_margin

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
    # the direct solve's program on a one-member state, forced by zeros
    program, coeffs = _first_order_rhs(p, grid)
    y = np.array(phi0.values, dtype=complex)[None, None]
    k = np.empty(y.shape[1:], dtype=complex)
    (run,) = program([y], [k])
    run(coeffs(t0), np.zeros(k.shape, dtype=complex))
    dt_phi = k[0]
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


@dataclass
class _Start:
    """One solution of a march: the state y0 at level j0, marched from
    there towards both ends of its span (lo, hi) of levels, the whole grid
    by default, and its forcing, if any: forcing(times) gives, for all of a
    direction's stage times at once, the index of the first one inside the
    source's time support and the source at each one inside it, one row
    per stage time.  A start at an end of its span has nothing to march
    towards that end.  The output holds 0 outside the span, so only the
    function that chose the span reads it."""

    y0: tuple
    j0: int
    forcing: Optional[Callable] = None
    span: Optional[Tuple[int, int]] = None


class _Member:
    """One direction of a start, a member of the stacked state: the levels
    it marches from j0 to lo or to hi, the ends of the start's span (none
    where j0 is at or beyond that end), its stage times, its forcing
    rows from stage rows_from on (none if unforced), the start's output
    and, from a zero start state, its first step with a forced stage; the
    levels before that step stay exactly 0 and are not marched.  A step's
    last stage runs at the next level's own time, so that it coincides
    with the next step's first stage."""

    def __init__(self, grid: Grid1p1, start: _Start, step: int, out: np.ndarray, zero_start: bool):
        self.y0 = start.y0
        self.step = step
        self.out = out
        lo, hi = start.span or (0, grid.nt - 1)
        self.levels = np.arange(start.j0, hi) if step > 0 else np.arange(start.j0, lo, -1)
        self.first = len(self.levels)
        self.end = None  # the state after its last step
        self.rows_from, self.rows = 0, np.empty((0,) + start.y0[0].shape, dtype=complex)
        if not len(self.levels):
            return
        # the stage times in order: level, midpoint, level, ..., next level
        self.times = np.empty(2 * len(self.levels) + 1)
        self.times[0::2] = grid.ts[np.append(self.levels, self.levels[-1] + step)]
        self.times[1::2] = grid.ts[self.levels] + step * grid.dt / 2
        if start.forcing is not None:
            self.rows_from, self.rows = start.forcing(self.times)
        # step n uses the stages 2n, 2n + 1 and 2n + 2
        forced = 0
        if zero_start:
            nonzero = np.flatnonzero(self.rows.any(axis=(1, 2)))
            forced = self.rows_from + int(nonzero[0]) if len(nonzero) else len(self.times)
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


def _march(program, stages, grid: Grid1p1, starts: list) -> list:
    """March every start from its level to both ends of its span, all as
    one stacked state; returns, per start, the section holding the first
    state component at every level of its span and 0 at the others.
    program is _right_hand_side's.  stages(ts) gives the coefficient
    values at each stage time of a stage-major (S, members, 1) stack ts
    (coefficient_tape's at.stages).  Raises SolverBlowupError for the
    first start, forward before backward, whose final state is not finite.
    Every operation acts on each member alone, so a start's solution does
    not depend on the others marched with it, and on its span it equals
    the solution marched over the whole grid."""
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
    _rk4(program, stages, [m for m in members if m.first < len(m.levels)], grid)
    for m in members:
        m.check_finite(grid)
    for start, out in zip(starts, outs):
        lo, hi = start.span or (0, grid.nt - 1)
        out[:lo] = 0.0
        out[hi + 1:] = 0.0
    return [GridSection(grid, out) for out in outs]


def _rk4(program, stages, members: list, grid: Grid1p1) -> None:
    """March the members in lockstep as one state stacked on a leading
    axis, each from its first step and from its own start state, writing
    the first state component of each level into the member's output, and
    keep each member's final state as its end.  The members step together
    as many steps as the one with the fewest left needs, a segment; it
    leaves the stack, and the rest go on.  Every BLOCK_STEPS steps, stages
    gives the coefficient values at the stage times of the coming steps,
    both ends included, the members' forcing rows at them are written into
    the segment's forcing buffer, and step j of the block gets stages 2j,
    2j + 1 and 2j + 2.

    A segment allocates one buffer for its four stages, each of C + 1
    components for a state of C: the stage state (the first one is the
    state, updated in place), then the derivative of its last component.
    The derivative of a component but the last is the next component of
    the state, so a stage's derivative of every component is the
    contiguous view of its components 1 to C, and program(states, ks)
    gets each stage's first C components and its last.  Every view is
    taken once, and a step is a fixed sequence of ufunc calls with out=.
    The stage states and the update y + dt/6 (k1 + 2 k2 + 2 k3 + k4) run
    on the float64 views of all components at once, in the order of the
    complex formulas, whose values they equal: a complex times a real
    column rounds as each part times it."""
    if not members:
        return
    y = np.stack([np.stack([m.y0[c] for m in members]) for c in range(len(members[0].y0))])
    while members:
        n = min(len(m.levels) - m.first for m in members)
        firsts = [m.first for m in members]
        times = np.stack([m.times[2 * i:2 * (i + n) + 1] for m, i in zip(members, firsts)])
        targets = np.stack([m.levels[i:i + n] + m.step for m, i in zip(members, firsts)], axis=1).tolist()
        outs = [m.out for m in members]
        dt = np.array([m.step * grid.dt for m in members])[:, None, None]
        # per stage, the state and then the derivative of its last component
        buffer = np.empty((4, len(y) + 1) + y.shape[1:], dtype=complex)
        buffer[0, :-1] = y
        y = buffer[0, :-1]
        runs = program(list(buffer[:, :-1]), list(buffer[:, -1]))
        views = buffer.view(np.float64)
        # per stage, the derivative of each state component: the next one, or k
        derivs = views[:, 1:]
        # the stage n + 1 state y + a k_n, and the update, after each run
        half_dt = dt / 2
        after = [_stage_state(views[b + 1, :-1], views[0, :-1], a, derivs[b]) for b, a in enumerate((half_dt, half_dt, dt))]
        after.append(_update(views[0, :-1], dt / 6, derivs))
        if not grid.periodic:
            after[-1].append(functools.partial(y[..., ::grid.nx - 1, :].fill, 0.0))
        # the stage of the block each run takes, as an offset from 2j
        steps = list(zip(runs, (0, 1, 1, 2), after))
        rows = list(y[0])
        forcing = _forcing_blocks(members, firsts, y.shape[2:])
        for s in range(n):
            j = s % BLOCK_STEPS
            if j == 0:
                count = min(BLOCK_STEPS, n - s)
                block = stages(np.ascontiguousarray(times[:, 2 * s:2 * (s + count) + 1].T)[..., None])
                f = forcing(s, count)
            for run, offset, ops in steps:
                run(block[2 * j + offset], f[2 * j + offset])
                for op in ops:
                    op()
            for out, level, row in zip(outs, targets[s], rows):
                out[level] = row
        for i, m in enumerate(members):
            m.first += n
            if m.first == len(m.levels):
                m.end = tuple(yc[i] for yc in y)
        keep = [i for i, m in enumerate(members) if m.end is None]
        members = [members[i] for i in keep]
        y = y[:, keep]


def _stage_state(into: np.ndarray, y: np.ndarray, a: np.ndarray, k: np.ndarray) -> list:
    """The ops writing the stage state y + a k into the float64 view into,
    all components at once: a a real column and k a stage's derivative of
    each component, contiguous views all of one shape."""
    part = functools.partial
    return [part(np.multiply, k, a, into), part(np.add, into, y, into)]


def _update(y: np.ndarray, a: np.ndarray, derivs: np.ndarray) -> list:
    """The ops of y += a (((2 k2 + k1) + 2 k3) + k4) on float64 views, all
    components at once, k_n being derivs[n - 1]."""
    part = functools.partial
    acc, twice = np.empty(y.shape), np.empty(y.shape)
    k1, k2, k3, k4 = derivs
    return [
        part(np.multiply, k2, 2.0, acc), part(np.add, acc, k1, acc), part(np.multiply, k3, 2.0, twice),
        part(np.add, acc, twice, acc), part(np.add, acc, k4, acc),
        part(np.multiply, acc, a, acc), part(np.add, y, acc, y),
    ]


def _forcing_blocks(members: list, firsts: list, shape: tuple) -> Callable:
    """forcing(s, count) for a segment whose members start at the steps
    firsts: the members' forcing rows at the stage times of its steps s to
    s + count, per stage time a (members, *shape) array, 0 for a member
    with no source there, or None where no member has one.  The rows are
    written into one buffer allocated once, and the arrays are its views."""
    forced = [(i, m) for i, m in enumerate(members) if len(m.rows)]
    if not forced:
        none = [None] * (2 * BLOCK_STEPS + 1)
        return lambda s, count: none
    buffer = np.zeros((2 * BLOCK_STEPS + 1, len(members)) + shape, dtype=complex)
    rows = list(buffer)

    def forcing(s: int, count: int) -> list:
        size = 2 * count + 1
        inside = np.zeros(size, dtype=bool)
        for i, m in forced:
            # the index in m.rows of the block's first stage
            start = 2 * (firsts[i] + s) - m.rows_from
            lo, hi = min(max(-start, 0), size), min(max(len(m.rows) - start, 0), size)
            buffer[:lo, i] = 0.0
            buffer[lo:hi, i] = m.rows[start + lo:start + hi]
            buffer[hi:size, i] = 0.0
            inside[lo:hi] = True
        return [row if flag else None for row, flag in zip(rows, inside.tolist())]

    return forcing


def _source_forcing(source: "TestSection", xs: np.ndarray):
    """forcing(times) for a _Start: the source sampled in one mesh evaluation
    at the stage times inside its time support; at the others its window
    vanishes exactly.  The stage times of a direction are monotone, so
    those inside are consecutive."""
    tape = _expr.Tape(source.components, xs)
    lo, hi = source.t_support

    def forcing(times: np.ndarray) -> tuple:
        inside = np.flatnonzero((times >= lo) & (times <= hi))
        if not len(inside):
            return 0, np.empty((0, len(xs), len(source.components)), dtype=complex)
        return int(inside[0]), tape.stack(times[inside, None])

    return forcing


# the load of a forced stage's first term: its forcing rows
_FORCING = "forcing"


def _right_hand_side(lead: MatrixField, terms, grid: Grid1p1):
    """The right-hand side of lead d_t y[-1] = f - sum field d_x^order y[c]
    over the terms (field, order, c), as a program, and its coefficient
    tape on the nodes.  program(states, ks) gives, per stage state y of
    shape (components, members, nx, k) and output k of shape (members, nx,
    k), run(c, f): it writes lead^{-1} (f - sum field d_x^order y[c]), the
    derivative of y's last component, into k, c the tape's values at the
    stage and f the members' forcing rows, None if none is forced; the
    derivative of each other component is the next one, y[1:] itself.  The
    runs share the stencil outputs and scratch arrays, allocated once, and
    a run is a fixed sequence of ufunc calls with out=.

    The terms whose field folds to 0, and so the stencils only their
    operands need, are left out, and a constant c Id field is applied as
    the number c (bundle_ops.product), +-Id as a sign; the rest are
    subtracted in order, from the first term where no member is forced, so
    the result equals subtracting every matrix product from f (zeros may
    differ in sign)."""
    terms = [(field, order, c) for field, order, c in terms if not field.is_zero]
    inverse = lead.inverse()
    coeffs = coefficient_tape([field for field, _, _ in terms] + [inverse], grid.xs)
    spacing = {1: 2 * grid.dx, 2: grid.dx**2}

    def program(states: list, ks: list) -> list:
        shape = ks[0].shape
        derivatives = {(order, c): np.empty(shape, dtype=complex) for _, order, c in terms if order}
        scratch, load = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
        runs = []
        for y, k in zip(states, ks):
            stencils = [_stencil(y[c], out, spacing[order], -2, order, grid.periodic) for (order, c), out in derivatives.items()]
            operands = [derivatives[order, c] if order else y[c] for _, order, c in terms]
            # an identity inverse leaves the load as it is, so it is gathered in k
            into = k if inverse.scalar == 1 else load
            variants = []
            for first in (None, _FORCING):
                ops, result = [], first
                for n, ((field, _, _), w) in enumerate(zip(terms, operands)):
                    term, result = _subtraction(field, n, w, result, into, scratch)
                    ops += term
                variants.append(ops + _solution(inverse, result, into, k))
            runs.append(_stage(stencils, *variants))
        return runs

    return program, coeffs


def _stage(stencils: list, unforced: list, forced: list) -> Callable:
    """run(c, f): the stencils, then the ops of an unforced or a forced
    stage."""

    def run(c, f) -> None:
        for stencil in stencils:
            stencil()
        for op in unforced if f is None else forced:
            op(c, f)

    return run


def _subtraction(field: MatrixField, n: int, w: np.ndarray, load, into: np.ndarray, scratch: np.ndarray) -> tuple:
    """The ops, each op(c, f), writing load - field @ w into into, field's
    value being c[n]: load is an array, _FORCING for the forcing rows f, or
    None for the number 0 of an unforced stage, which leaves -field @ w.  A
    constant +-Id field is applied as its sign, so -(-Id) w is w itself,
    with no op.  Returns the ops and the array holding the result."""
    s = field.scalar
    if s == -1 and load is None:
        return [], w
    ops, term = [], w
    if s not in (1, -1):
        apply = product(field)(w, scratch)
        ops.append(lambda c, f: apply(c[n]))
        term = scratch
    if load is None:
        ops.append(lambda c, f: np.negative(term, into))
    else:
        combine = np.add if s == -1 else np.subtract
        if load is _FORCING:
            ops.append(lambda c, f: combine(f, term, into))
        else:
            ops.append(lambda c, f: combine(load, term, into))
    return ops, into


def _solution(inverse: MatrixField, load, into: np.ndarray, k: np.ndarray) -> list:
    """The ops writing inverse @ load into k, the inverse's value being the
    last of the coefficient values c: load as _subtraction leaves it, the
    number 0 of an unforced stage and the forcing rows of a forced one
    with no term first written into into, which is k for the identity."""
    ops = []
    if load is None:
        ops.append(lambda c, f: into.fill(0.0))
    elif load is _FORCING:
        ops.append(lambda c, f: np.copyto(into, f))
    load = into if load is None or load is _FORCING else load
    if inverse.scalar == 1:
        if load is not k:
            ops.append(lambda c, f: np.copyto(k, load))
    else:
        solve = product(inverse)(load, k)
        ops.append(lambda c, f: solve(c[-1]))
    return ops


def _first_order_rhs(p: FirstOrderOperator, grid: Grid1p1):
    """d_t u = (A^t)^{-1} (f - A^x d_x u - B u) and its coefficient tape."""
    return _right_hand_side(p.a_t, ((p.a_x, 1, 0), (p.b, 0, 0)), grid)


def solve_second_order(
    op: SecondOrderOperator,
    metric: DiagonalMetric,
    grid: Grid1p1,
    phi0_values: np.ndarray,
    dtphi0_values: np.ndarray,
    j0: int,
    span: Optional[Tuple[int, int]] = None,
) -> GridSection:
    """Method-of-lines solve of L u = 0 from data (u, d_t u) at level j0,
    in both time directions, over the levels lo..hi of span (the whole
    grid by default; 0 outside it).  Driven solves: greens.solve_driven."""
    return _solve_second_order(op, metric, grid, [(phi0_values, dtphi0_values, j0, None, span)])[0]


def _solve_second_order(op: SecondOrderOperator, metric: DiagonalMetric, grid: Grid1p1, starts: list) -> list:
    """Method-of-lines solves of L u = f for several starts (u, d_t u, j0,
    source, span), f a test section or None for f = 0 and span the levels
    (lo, hi) to march or None for the whole grid, marched as one stacked
    state; one section per start."""
    grid.check_cfl(metric.max_light_speed())
    program, coeffs = _right_hand_side(op.c_tt, (
        (op.c_tx.scale(2.0), 1, 1), (op.c_xx, 2, 0), (op.d_t, 0, 1), (op.d_x, 1, 0), (op.e, 0, 0),
    ), grid)
    return _march(program, coeffs.stages, grid, [
        _Start(
            (np.asarray(u0, dtype=complex), np.asarray(v0, dtype=complex)), j0,
            None if source is None else _source_forcing(source, grid.xs), span,
        )
        for u0, v0, j0, source, span in starts
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
    program, coeffs = _first_order_rhs(p, grid)
    return _march(program, coeffs.stages, grid, [_Start((np.asarray(phi0.values, dtype=complex),), phi0.level)])[0]


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
    span: Optional[Tuple[int, int]] = None,
) -> GridSection:
    """Solve P Phi = 0, Phi|_Sigma = Phi_0 through the second-order
    reduction: build d_t Phi_0 and solve (QP) Phi = 0 with the pair of
    data.  It checks the causal margin, the CFL condition, prenormal
    hyperbolicity and blow-up, but neither the pair nor the solution:
    solve_cauchy does both.  span (lo, hi) marches only those levels, for
    a caller that reads no others: the solution is 0 outside them."""
    grid = grid or phi0.grid
    check_causal_margin(metric, grid, phi0.support, phi0.t0)
    dtphi0 = normal_derivative_data(p, metric, phi0)
    return solve_second_order(compose(q, p), metric, grid, phi0.values, dtphi0.values, phi0.level, span=span)


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
