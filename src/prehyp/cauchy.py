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
program run once on a one-member state.  A right-hand side is built once
per operator and grid and kept on the operator, so every solve of one
operator on one grid marches one program and one coefficient tape.  Every
field is set up when it is built, applied through bundle_ops.product or
as a three-point operator's weights, so a march only runs ops.

Time stepping is classical 4th-order one-step (RK4); space is 2nd-order
centered.  A march evolves a list of starts of one operator, each a state
at a level and its forcing, with one output per start, marched from its
level to both ends of its span of levels: the whole grid, or fewer where
the solution's only reader reads fewer (a pairing reads it only where
the other section is nonzero, a Cauchy-line product only on its lines),
as solve_cauchy_plain and greens.solve_driven's jobs take it.  The
output holds only the levels of the span where the solution can be
nonzero (grids.GridSection): a driven start's from its first forced
step, where its state leaves the zero data, on.  A Cauchy solve is one
start; a driven solve is a start at an end of the grid, so it marches in
one direction.
Every direction of every start is a member of one stacked RK4 state, with
its own start state, step sign, stage times and forcing; the members step
in lockstep, each leaving the stack when its last level is done, and one
coefficient tape serves them all.  A source is sampled one block of
stage times at a time, at those inside its time support.  Each lockstep
segment allocates its buffers once (the stage states, each with the
derivative of its last component as one more component, the stencil
outputs, the products and the forcing rows of a block) and takes each
view once, so a step is a fixed sequence of ufunc calls with out=, in
the order of the formulas it replaces, whose values it equals.  The
stage states and the update act on all components at once, with dt/2, dt
and dt/6 as numbers, or laid out over the state where its members step
in both directions, and a stencil's two edge rows, one-sided on a line
or wrapped around on a circle, take three calls.

Where C^xx and D^x of a second-order operator are real s Id fields free
of t, one of them not constant (a metric whose beta depends on x alone,
the README's), C^xx d_x^2 u + D^x d_x u, and E u where E is such a field
too, is one three-point operator a_i u_{i+1} + b_i u_i + e_i u_{i-1}:
real weights per node, built with the right-hand side from the
fields' node values and laid out over a segment's members, eight calls
on the float64 view where two stencils and their products made twelve
and more.  It is the same second-order scheme in exact arithmetic, and
its values move in the last bits; every other operator keeps the
stencils, and its march outputs are those of the formulas above.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Optional, Tuple, Union

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
    kept,
    product,
)
from .geometry import CauchyLine, CausalShadow, DiagonalMetric
from .grids import (
    CauchyData,
    Grid1p1,
    GridSection,
    _stencil,
    _three_point,
    check_causal_margin,
    squared_norm,
    three_point_weights,
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
    by default, and its source, if any (_Forcing).  A start at an end of
    its span has nothing to march towards that end.  Its output holds only
    the levels of the span where it can be nonzero (_march)."""

    y0: tuple
    j0: int
    forcing: Optional["_Forcing"] = None
    span: Optional[Tuple[int, int]] = None


class _Member:
    """One direction of a start, a member of the stacked state: the levels
    it marches from j0 to lo or to hi, the ends of the start's span (none
    where j0 is at or beyond that end), its stage times, the range
    [forced[0], forced[1]) of those inside its source's time support (none
    if unforced) and, from a zero start state, its first step with a
    forced stage; the levels before that step stay exactly 0 and are not
    marched.  _march gives it the start's output and, per level it
    marches to, the output row it writes (slots).  A step's last stage
    runs at the next level's own time, so that it coincides with the next
    step's first stage."""

    def __init__(self, grid: Grid1p1, start: _Start, step: int, zero_start: bool):
        self.y0 = start.y0
        self.step = step
        self.forcing = start.forcing
        lo, hi = start.span or (0, grid.nt - 1)
        self.levels = np.arange(start.j0, hi) if step > 0 else np.arange(start.j0, lo, -1)
        self.first = len(self.levels)
        self.end = None  # the state after its last step
        self.forced = (0, 0)
        if not len(self.levels):
            return
        # the stage times in order: level, midpoint, level, ..., next level
        self.times = np.empty(2 * len(self.levels) + 1)
        self.times[0::2] = grid.ts[np.append(self.levels, self.levels[-1] + step)]
        self.times[1::2] = grid.ts[self.levels] + step * grid.dt / 2
        if self.forcing is not None:
            self.forced = self.forcing.inside(self.times)
        # step n uses the stages 2n, 2n + 1 and 2n + 2
        forced = 0
        if zero_start:
            forced = self.forced[0] if self.forced[1] > self.forced[0] else len(self.times)
        self.first = max(0, (forced - 1) // 2)

    def written(self) -> Tuple[int, int]:
        """The levels [a, b) its steps from the first on march to, empty
        if it takes none."""
        if self.first == len(self.levels):
            return 0, 0
        ends = self.levels[[self.first, -1]] + self.step
        return int(ends.min()), int(ends.max()) + 1

    def first_non_finite(self) -> Optional[int]:
        """None if its final state is finite, else the first level in march
        order whose row in the output is not finite, or -1 if it marched
        levels the output does not hold before that one: a non-finite
        interior node stays so under the update, so the final state covers
        every level."""
        if all(np.isfinite(yc).all() for yc in self.end):
            return None
        swept = (self.levels + self.step).tolist()
        sink = len(self.out) - 1
        for n, (level, slot) in enumerate(zip(swept, self.slots.tolist())):
            if slot != sink and not np.isfinite(self.out[slot]).all():
                return -1 if (self.slots[self.marched:n] == sink).any() else level
        return swept[-1]


def _march(program, stages, grid: Grid1p1, starts: list) -> list:
    """March every start from its level to both ends of its span, all as
    one stacked state; returns, per start, the section of the first state
    component held on the levels of its span where it can be nonzero
    (_held_levels).  program is _right_hand_side's.  stages(ts) gives the
    coefficient values at each stage time of a stage-major (S, members, 1)
    stack ts (coefficient_tape's at.stages).  Raises SolverBlowupError for
    the first start, forward before backward, whose final state is not
    finite, at its first non-finite level.  Every operation acts on each
    member alone, so a start's solution does not depend on the others
    marched with it, and on its levels it equals the solution marched over
    the whole grid."""
    sections, members = [], []
    for start in starts:
        zero_start = not any(yc.any() for yc in start.y0)
        pair = [_Member(grid, start, step, zero_start) for step in (1, -1)]
        a, b = _held_levels(grid, start, pair, zero_start)
        # one more row, which the section leaves out, for the levels a
        # member marches to outside [a, b)
        out = np.empty((b - a + 1,) + start.y0[0].shape, dtype=complex)
        if a <= start.j0 < b:
            out[start.j0 - a] = start.y0[0]
        forward, backward = (m.written() for m in pair)
        if zero_start and forward[0] < forward[1] and backward[0] < backward[1]:
            # between the members' first levels the state is the zero data
            out[max(backward[1], a) - a:max(min(forward[0], b), a) - a] = 0.0
        for m in pair:
            m.out, m.marched = out, m.first
            targets = m.levels + m.step
            m.slots = np.where((targets >= a) & (targets < b), targets - a, b - a)
        members += pair
        sections.append(GridSection(grid, out[:-1], a))
    _rk4(program, stages, [m for m in members if m.first < len(m.levels)], grid)
    for start, m in zip([s for s in starts for _ in (1, -1)], members):
        bad = None if m.end is None else m.first_non_finite()
        if bad == -1:
            # it blew up before the levels its output holds: marched again
            # with them reaching back to j0, it raises at its first level
            lo, hi = start.span or (0, grid.nt - 1)
            _march(program, stages, grid, [replace(start, span=(min(lo, start.j0), max(hi, start.j0)))])
        if bad is not None:
            raise SolverBlowupError(bad, float(grid.ts[bad]))
    return sections


def _held_levels(grid: Grid1p1, start: _Start, pair: list, zero_start: bool) -> Tuple[int, int]:
    """The levels [a, b) a start's output holds: those of its span that
    its members march to, from its first forced step on for a member from
    zero data, and j0 for nonzero data.  It is 0 at the others."""
    lo, hi = start.span or (0, grid.nt - 1)
    ends = [m.written() for m in pair] + ([] if zero_start else [(start.j0, start.j0 + 1)])
    ends = [(a, b) for a, b in ends if a < b]
    if not ends:
        return lo, lo
    a = max(min(a for a, _ in ends), lo)
    return a, max(min(max(b for _, b in ends), hi + 1), a)


def _rk4(program, stages, members: list, grid: Grid1p1) -> None:
    """March the members in lockstep as one state stacked on a leading
    axis, each from its first step and from its own start state, writing
    the first state component of each level into the member's output row
    for it (slots), and keep each member's final state as its end.  The
    members step together as many steps as the one with the fewest left
    needs, a segment; it leaves the stack, and the rest go on.  Every
    BLOCK_STEPS steps, stages gives the coefficient values at the stage
    times of the coming steps, both ends included, the members' sources
    are sampled at them into the segment's forcing buffer, and step j of
    the block gets stages 2j, 2j + 1 and 2j + 2.

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
    number rounds as each part times it.  Their coefficients dt/2, dt and
    dt/6 are numbers where the segment's members share a step sign, else
    arrays of the views' shape laid out once per segment
    (_step_coefficients)."""
    if not members:
        return
    y = np.stack([np.stack([m.y0[c] for m in members]) for c in range(len(members[0].y0))])
    while members:
        n = min(len(m.levels) - m.first for m in members)
        firsts = [m.first for m in members]
        times = np.stack([m.times[2 * i:2 * (i + n) + 1] for m, i in zip(members, firsts)])
        targets = np.stack([m.slots[i:i + n] for m, i in zip(members, firsts)], axis=1).tolist()
        outs = [m.out for m in members]
        # per stage, the state and then the derivative of its last component
        buffer = np.empty((4, len(y) + 1) + y.shape[1:], dtype=complex)
        buffer[0, :-1] = y
        y = buffer[0, :-1]
        runs = program(list(buffer[:, :-1]), list(buffer[:, -1]))
        views = buffer.view(np.float64)
        # per stage, the derivative of each state component: the next one, or k
        derivs = views[:, 1:]
        # the stage n + 1 state y + a k_n, and the update, after each run
        half_dt, dt, sixth_dt = _step_coefficients([m.step * grid.dt for m in members], views[0, :-1].shape)
        after = [_stage_state(views[b + 1, :-1], views[0, :-1], a, derivs[b]) for b, a in enumerate((half_dt, half_dt, dt))]
        after.append(_update(views[0, :-1], sixth_dt, derivs))
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


def _step_coefficients(dts: list, shape: tuple) -> tuple:
    """dt/2, dt and dt/6 for the members' signed steps dts: numbers where
    the members share one step, else arrays of the float64 view's shape
    (components, members, nx, 2k), each member's own value over its rows,
    so that no stage or update multiply broadcasts a column."""
    if len(set(dts)) == 1:
        return dts[0] / 2, dts[0], dts[0] / 6
    column = np.array(dts)[:, None, None]
    return tuple(np.ascontiguousarray(np.broadcast_to(a, shape)) for a in (column / 2, column, column / 6))


def _stage_state(into: np.ndarray, y: np.ndarray, a, k: np.ndarray) -> list:
    """The ops writing the stage state y + a k into the float64 view into,
    all components at once: a a number or an array of into's shape
    (_step_coefficients) and k a stage's derivative of each component,
    contiguous views all of one shape."""
    part = functools.partial
    return [part(np.multiply, k, a, into), part(np.add, into, y, into)]


def _update(y: np.ndarray, a, derivs: np.ndarray) -> list:
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
    with no source there, or None where no member has one.  Each member's
    source is sampled at the block's stage times inside its time support,
    straight into one buffer allocated once, and the arrays are its
    views."""
    forced = [(i, m) for i, m in enumerate(members) if m.forced[1] > m.forced[0]]
    if not forced:
        none = [None] * (2 * BLOCK_STEPS + 1)
        return lambda s, count: none
    buffer = np.zeros((2 * BLOCK_STEPS + 1, len(members)) + shape, dtype=complex)
    rows = list(buffer)

    def forcing(s: int, count: int) -> list:
        size = 2 * count + 1
        inside = np.zeros(size, dtype=bool)
        for i, m in forced:
            # the index in m.times of the block's first stage
            start = 2 * (firsts[i] + s)
            lo, hi = (min(max(end - start, 0), size) for end in m.forced)
            buffer[:lo, i] = 0.0
            if lo < hi:
                m.forcing.sample(m.times[start + lo:start + hi], buffer[lo:hi, i])
            buffer[hi:size, i] = 0.0
            inside[lo:hi] = True
        return [row if flag else None for row, flag in zip(rows, inside.tolist())]

    return forcing


class _Forcing:
    """A source as a march samples it: its tape on the nodes, run on a
    block of stage times at a time, and its time support, outside which
    its window vanishes exactly."""

    def __init__(self, source: "TestSection", xs: np.ndarray):
        self.tape = _expr.Tape(source.components, xs)
        self.t_support = source.t_support

    def inside(self, times: np.ndarray) -> Tuple[int, int]:
        """The range [a, b) of the stage times inside the time support: a
        direction's stage times are monotone, so those are consecutive."""
        lo, hi = self.t_support
        inside = np.flatnonzero((times >= lo) & (times <= hi))
        return (int(inside[0]), int(inside[-1]) + 1) if len(inside) else (0, 0)

    def sample(self, times: np.ndarray, out: np.ndarray) -> None:
        """The source at the stage times, one row per time, into out."""
        self.tape.stack(times[:, None], out)


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
    a run is a fixed sequence of ufunc calls with out=.  A term (x, _X, c),
    x a _ThreePoint, subtracts x's operator applied to y[c].

    Every field is set up here, once per operator and grid: a term's field
    is applied through bundle_ops.product (a constant c Id field as the
    number c, +-Id as a sign) and a _ThreePoint's weights are built with
    it, so a run only runs ops.  The terms whose field folds to 0, and so
    the stencils only their operands need, are left out; the rest are
    subtracted in order, from the first term where no member is forced, so
    the result equals subtracting every matrix product from f (zeros may
    differ in sign)."""
    terms = [(field, order, c) for field, order, c in terms if not field.is_zero]
    inverse = lead.inverse()
    # term n's field is the tape's field n; a _ThreePoint's is its constant -Id
    fields = [field.minus if order == _X else field for field, order, _ in terms]
    coeffs = coefficient_tape(fields + [inverse], grid.xs)
    spacing = {1: 2 * grid.dx, 2: grid.dx**2}

    def program(states: list, ks: list) -> list:
        shape = ks[0].shape
        derivatives = {(order, c): np.empty(shape, dtype=complex) for _, order, c in terms if order}
        layouts = {n: field.layout(shape) for n, (field, order, _) in enumerate(terms) if order == _X}
        scratch, load = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
        runs = []
        for y, k in zip(states, ks):
            stencils = [
                _stencil(y[c], out, spacing[order], -2, order, grid.periodic)
                for (order, c), out in derivatives.items() if order in spacing
            ]
            operands = [derivatives[order, c] if order else y[c] for _, order, c in terms]
            # each _ThreePoint writes the negative of its operator into its operand
            three_points = {
                n: field.bind(y[c], operands[n], layouts[n])
                for n, (field, order, c) in enumerate(terms) if order == _X
            }
            # an identity inverse leaves the load as it is, so it is gathered in k
            into = k if inverse.scalar == 1 else load
            variants = []
            for first in (None, _FORCING):
                ops, result = [], first
                for n, (field, w) in enumerate(zip(fields, operands)):
                    if n in three_points:
                        ops.append(three_points[n])
                    term, result = _subtraction(field, n, w, result, into, scratch)
                    ops += term
                variants.append(ops + _solution(inverse, result, into, k))
            runs.append(_stage(stencils, *variants))
        return runs

    return program, coeffs


# the order of a term that is a _ThreePoint
_X = "x"


class _ThreePoint:
    """C^xx d_x^2 + D^x d_x + E of a second-order operator, as one term of
    its right-hand side: one three-point operator on the nodes
    (grids._three_point), for real s Id fields C^xx, D^x and E free of t
    (E is the zero field where the operator's is not one, and that stays a
    term of its own).  The weights, of the operator's negative
    (grids.three_point_weights), are built here from the fields' node
    values, so with the right-hand side, and laid out over each segment's
    members; the term subtracts -Id (minus) times the negative, which
    leaves it as it is where it comes first in an unforced stage."""

    is_zero = False

    def __init__(self, fields: tuple, grid: Grid1p1):
        self.grid = grid
        self.minus = MatrixField.from_constant(-np.eye(fields[0].k))
        values = [f.eval(0.0, grid.xs)[:, 0, 0].real for f in fields]
        self.nodes, self.edges = (np.negative(w) for w in three_point_weights(*values, grid))

    def layout(self, shape: tuple) -> tuple:
        """The weights and edge weights as _three_point takes them for
        complex arrays of shape (members, nx, k)."""
        row = 2 * shape[-1]
        full, ends = np.empty((3,) + shape[:-1] + (row,)), np.empty(shape[:1] + self.edges.shape + (row,))
        full[...] = self.nodes[:, None, :, None]
        ends[...] = self.edges[..., None]
        return full, ends

    def bind(self, w: np.ndarray, out: np.ndarray, laid: tuple) -> Callable:
        """op(c, f) writing the negative of the operator applied to w into
        out, laid being layout's weights."""
        run = _three_point(w, out, *laid, self.grid.periodic)
        return lambda c, f: run()


def _real_x_only(field: MatrixField) -> bool:
    """Whether field is s Id for a real s free of t."""
    s = field.diagonal
    return s is not None and not _expr.uses_var(s, "t") and _expr.is_real(s)


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
    value being c[n]: load is an array, _FORCING for the forcing rows f,
    or None for the number 0 of an unforced stage, which leaves -field @ w.
    A constant +-Id field is applied as its sign, so -(-Id) w is w itself,
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


def _kept_per_grid(op: Union[FirstOrderOperator, SecondOrderOperator], grid: Grid1p1, build: Callable):
    """build(), kept on op per grid: keyed on the grid's identity, and the
    entry holds the grid, so that no other grid can take its key."""
    return kept(op, ("rhs", id(grid)), lambda: (grid, build()))[1]


def _first_order_rhs(p: FirstOrderOperator, grid: Grid1p1):
    """d_t u = (A^t)^{-1} (f - A^x d_x u - B u) and its coefficient tape,
    built once per operator and grid."""
    return _kept_per_grid(p, grid, lambda: _right_hand_side(p.a_t, ((p.a_x, 1, 0), (p.b, 0, 0)), grid))


def _second_order_rhs(op: SecondOrderOperator, grid: Grid1p1):
    """L u = f as d_t v = (C^tt)^{-1} (f - 2 C^tx d_x v - C^xx d_x^2 u
    - D^t v - D^x d_x u - E u), v = d_t u, and its coefficient tape, built
    once per operator and grid: every solve of op on grid marches it."""
    return _kept_per_grid(op, grid, lambda: _right_hand_side(op.c_tt, _second_order_terms(op, grid), grid))


def _second_order_terms(op: SecondOrderOperator, grid: Grid1p1) -> list:
    """The terms of L's right-hand side in order.  Where C^xx and D^x are
    real s Id fields free of t, one of them not constant (a metric whose
    beta depends on x alone), C^xx d_x^2 u + D^x d_x u is one three-point
    operator, subtracted in C^xx's place, and so is E u where E is such a
    field too; the rest keep the stencils."""
    terms = [(op.c_tx.scale(2.0), 1, 1), (op.c_xx, 2, 0), (op.d_t, 0, 1), (op.d_x, 1, 0), (op.e, 0, 0)]
    if not (_real_x_only(op.c_xx) and _real_x_only(op.d_x)) or (op.c_xx.is_constant and op.d_x.is_constant):
        return terms
    folded = _real_x_only(op.e)
    x = _ThreePoint((op.c_xx, op.d_x, op.e if folded else MatrixField.zero(op.k)), grid)
    return [terms[0], (x, _X, 0), terms[2]] + ([] if folded else [terms[4]])


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
    state; one section per start.  A source that several starts share is
    sampled by one forcing."""
    grid.check_cfl(metric.max_light_speed())
    program, coeffs = _second_order_rhs(op, grid)
    sources = {id(source): source for *_, source, _ in starts if source is not None}
    forcing = {key: _Forcing(source, grid.xs) for key, source in sources.items()}
    return _march(program, coeffs.stages, grid, [
        _Start(
            (np.asarray(u0, dtype=complex), np.asarray(v0, dtype=complex)), j0,
            None if source is None else forcing[id(source)], span,
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
    """Max |Phi| outside the (inflated) shadow, relative to reference, over
    the levels Phi holds: it is 0 at the others."""
    grid = phi.grid
    mask = shadow.outside_mask(grid.ts[phi.first:phi.stop, None], grid.xs)
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


def _check_pair(p: FirstOrderOperator, q: FirstOrderOperator, metric: DiagonalMetric) -> None:
    """Raise PairCheckError unless (P, Q) is a complementary pair."""
    report = is_complementary_pair(p, q, metric)
    if not report.passed:
        raise PairCheckError(f"(P, Q) is not a complementary pair (max deviation {report.max_deviation:.3e})")


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
    _check_pair(p, q, metric)
    phi = solve_cauchy_plain(p, q, metric, phi0, grid)

    residual = apply_operator(p, phi)
    sum_sq, res_linf = squared_norm(residual, start=1, stop=grid.nt - 1)
    res_l2 = float(np.sqrt(sum_sq * grid.dx * grid.dt))
    trace = float(np.max(np.abs(residual.level(phi0.level))))
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
    values = phi.level(j).copy()
    mask = shadow.outside_mask(t_level, grid.xs)
    values[mask] = 0.0
    return CauchyData(grid, t_level, values, (lo, hi))


@dataclass
class RoundTripReport:
    round_trip_error: float
    # the data restricted back to Sigma
    data_back: CauchyData


def compatibility_round_trip(
    p: FirstOrderOperator,
    q: FirstOrderOperator,
    metric: DiagonalMetric,
    phi0: CauchyData,
    sigma: CauchyLine,
    sigma_prime: CauchyLine,
    grid: Optional[Grid1p1] = None,
) -> RoundTripReport:
    """Check the pair, then solve from Sigma, restrict to Sigma', re-solve
    from Sigma' and restrict back; reports the returned data and its
    L-infinity distance from the original.  Both solves are plain: the
    round trip reads no residual or leak."""
    grid = grid or phi0.grid
    _check_pair(p, q, metric)
    phi = solve_cauchy_plain(p, q, metric, phi0, grid)
    data_prime = restrict(phi, sigma_prime, metric, phi0)
    phi_back = solve_cauchy_plain(p, q, metric, data_prime, grid)
    data_back = restrict(phi_back, sigma, metric, data_prime)
    err = float(np.max(np.abs(data_back.values - phi0.values)))
    return RoundTripReport(err, data_back)
