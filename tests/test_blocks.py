"""Whole-mesh passes run block by block of levels (grids.level_blocks).

apply_operator, the residual norms (grids.squared_norm) and Tape.stack on
a mesh work on one block of levels at a time, so that no temporary is the
size of the mesh.  Each must give the values of the whole-mesh formula it
replaced, kept here as the reference: bit for bit, or, where apply_operator
skips the levels whose stencil window is 0, equal under np.array_equal
(zeros may differ in sign).
"""

import numpy as np
import pytest

from conftest import traced_peak
from prehyp import bundle_ops, grids, greens
from prehyp.bundle_ops import FirstOrderOperator, apply_operator, coefficient_tape, compose, product
from prehyp.config import resolve_preset
from prehyp.expr import ExprEvalError, Tape, as_ast
from prehyp.geometry import Chart1p1, DiagonalMetric
from prehyp.grids import GridSection, build_grid, d_t, d_tt, d_x, d_xx, level_blocks, squared_norm
from prehyp.greens import make_test_section

METRICS = {
    "flat": ("1", "1"),
    "readme": ("1+0.1*sin(t)", "1+0.3*cos(2*x)"),
    "general": ("1+0.3*x", "1+0.3*t"),
}


def reference_apply_operator(op, phi):
    """apply_operator as one sum of terms over the whole mesh."""
    grid, v = phi.grid, phi.mesh()
    if isinstance(op, FirstOrderOperator):
        fields = (op.a_t, op.a_x, op.b)
    else:
        fields = (op.c_tt, op.c_tx.scale(2.0), op.c_xx, op.d_t, op.d_x, op.e)
    c = coefficient_tape(fields, grid.xs)(grid.ts[:, None])

    def term(n, w):
        return product(fields[n])(w, np.empty(w.shape, complex))(c[n])

    if isinstance(op, FirstOrderOperator):
        return term(0, d_t(v, grid)) + term(1, d_x(v, grid)) + term(2, v)
    vt = d_t(v, grid)
    return (
        term(0, d_tt(v, grid))
        + term(1, d_x(vt, grid))
        + term(2, d_xx(v, grid))
        + term(3, vt)
        + term(4, d_x(v, grid))
        + term(5, v)
    )


def dirac_on(metric_name, topology, nx):
    chart = Chart1p1(-0.3, 0.3, -1.0, 1.0, topology=topology)
    metric = DiagonalMetric(*METRICS[metric_name], chart)
    p, q = resolve_preset("dirac_massive", 1.0, metric)
    return metric, p, q, build_grid(chart, metric, nx)


def random_section(grid, seed):
    rng = np.random.default_rng(seed)
    shape = (grid.nt, grid.nx, 2)
    return GridSection(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


# blocks of the default budget, or of as many levels as the budget is
# levels: at nx 97 the default holds the whole mesh, 7 levels make about
# 11 blocks, and 2 levels blocks shorter than the 4 a window needs
BLOCKS = {"one": None, "several": 7, "short": 2}


def set_block_levels(monkeypatch, grid, levels):
    if levels is not None:
        monkeypatch.setattr(grids, "BLOCK_BYTES", levels * grid.nx * 2 * 16)


@pytest.mark.parametrize("blocks", sorted(BLOCKS))
@pytest.mark.parametrize("topology", ["line", "circle"])
@pytest.mark.parametrize("metric_name", sorted(METRICS))
def test_blocked_apply_operator_is_the_whole_mesh_sum(monkeypatch, metric_name, topology, blocks):
    metric, p, q, grid = dirac_on(metric_name, topology, 97)
    set_block_levels(monkeypatch, grid, BLOCKS[blocks])
    count = len(list(level_blocks(grid.nt, grid.nx * 2 * 16)))
    assert (count == 1) == (blocks == "one")
    phi = random_section(grid, 97)
    for op in (p, q, compose(p, q), compose(q, p)):
        got = apply_operator(op, phi).values
        assert got.tobytes() == reference_apply_operator(op, phi).tobytes()


@pytest.mark.parametrize("metric_name", ["flat", "readme"])
def test_blocked_apply_operator_at_nx_512(metric_name):
    # the default budget: 32 levels of an nx 512 rank-2 section
    metric, p, q, grid = dirac_on(metric_name, "line", 512)
    assert len(list(level_blocks(grid.nt, grid.nx * 2 * 16))) > 10
    phi = random_section(grid, 512)
    for op in (p, q):
        assert apply_operator(op, phi).values.tobytes() == reference_apply_operator(op, phi).tobytes()


@pytest.mark.parametrize("direction", ["retarded", "advanced"])
def test_zero_levels_run_no_stencil(monkeypatch, direction):
    # a spanned driven solution holds no level outside its span, and a
    # retarded (advanced) one none before (after) its source: the output
    # holds the stencil window of its levels, and only those blocks run a
    # stencil
    metric, p, q, grid = dirac_on("readme", "line", 160)
    set_block_levels(monkeypatch, grid, 8)
    section = make_test_section(grid, ["1", "0.5"], (0.0, 0.05, 2.5), (0.0, 0.02, 10.0))
    u = greens.solve_driven(compose(p, q), metric, [(section, direction, (30, 100))], grid)[0]
    assert 30 <= u.first and u.stop - 1 <= 100 and u.values[[0, -1]].any()
    read = []
    t_stencil = bundle_ops.d_t
    monkeypatch.setattr(bundle_ops, "d_t", lambda v, grid, out: read.append(len(v)) or t_stencil(v, grid, out))
    got = apply_operator(q, u)
    want = reference_apply_operator(q, u)
    assert np.array_equal(got.mesh(), want)
    assert (got.first, got.stop) == (u.first - 1, u.stop + 1)
    # the windows cover the held levels and one level each side
    assert sum(read) <= u.stop - u.first + 2 + 2 * len(read)


def test_zero_section_is_zero():
    metric, p, q, grid = dirac_on("flat", "line", 97)
    out = apply_operator(q, GridSection.zeros(grid, 2)).values
    assert out.shape == (grid.nt, grid.nx, 2) and not out.any()


def test_level_blocks_tile_the_levels_with_their_windows(monkeypatch):
    for nt in (4, 5, 9, 40):
        for levels in (1, 2, 3, 7, 100):
            monkeypatch.setattr(grids, "BLOCK_BYTES", levels)
            for start, stop in ((0, nt), (1, nt - 1), (2, 3)):
                blocks = list(level_blocks(nt, 1, start, stop))
                assert [b[0] for b in blocks] == [start] + [b[1] for b in blocks[:-1]]
                assert blocks[-1][1] == stop
                assert max(b - a for a, b, _, _ in blocks) - min(b - a for a, b, _, _ in blocks) <= levels
                for a, b, lo, hi in blocks:
                    assert 0 <= lo <= max(a - 1, 0) and min(b + 1, nt) <= hi <= nt
                    assert hi - lo >= 4 and b - a <= levels


@pytest.mark.parametrize("stencil", [d_x, d_xx, d_t, d_tt])
def test_stencils_write_into_out(grid_small, stencil):
    v = random_section(grid_small, 5).values
    out = np.empty_like(v)
    assert stencil(v, grid_small, out) is out
    assert out.tobytes() == stencil(v, grid_small).tobytes()


def test_squared_norm_is_the_whole_array_formula(monkeypatch):
    rng = np.random.default_rng(11)
    a = rng.standard_normal((83, 64, 2)) + 1j * rng.standard_normal((83, 64, 2))
    b = rng.standard_normal((83, 64, 2)) * 1j
    for levels in (None, 5, 1):
        if levels is not None:
            monkeypatch.setattr(grids, "BLOCK_BYTES", levels * a[0].nbytes)
        for x, y in ((a, b), (a[1:-1], b[1:-1]), (a, None)):
            d = x if y is None else x - y
            total, peak = squared_norm(x, y)
            assert total == np.sum(np.abs(d) ** 2) and peak == np.max(np.abs(d))
    a[40, 3, 1] = np.nan
    assert all(np.isnan(f) for f in squared_norm(a, b))


def test_identity_residuals_are_the_whole_array_formula():
    metric, p, q, grid = dirac_on("readme", "line", 160)
    phi = make_test_section(grid, ["1", "0.5"], (0.0, 0.05, 2.5), (0.0, 0.02, 10.0))
    s_phi = greens.greens_apply(p, q, metric, [(phi, "retarded")], grid)[0]

    def relative(diff, ref):
        num = np.sqrt(np.sum(np.abs(diff) ** 2) * grid.dx * grid.dt)
        den = np.sqrt(np.sum(np.abs(ref) ** 2) * grid.dx * grid.dt)
        return float(num / den)

    p_s_phi, phi_mesh, s_phi_mesh = apply_operator(p, s_phi).mesh(), phi.as_section().mesh(), s_phi.mesh()
    left = relative(p_s_phi[1:-1] - phi_mesh[1:-1], phi_mesh[1:-1])
    assert greens._left_inverse_residual(p, phi, s_phi) == left
    assert greens._right_inverse_residual(phi, s_phi) == relative(s_phi_mesh - phi_mesh, phi_mesh)


# ---------------------------------------------------------------------------
# memory

@pytest.mark.parametrize("metric_name", ["flat", "readme"])
def test_apply_operator_holds_no_whole_mesh_temporary(metric_name):
    # the output, the coefficients on the mesh and a few blocks
    metric, p, q, grid = dirac_on(metric_name, "line", 512)
    phi = random_section(grid, 3)
    for op in (p, q):
        out, peak = traced_peak(lambda: apply_operator(op, phi))
        assert peak <= 1.5 * out.values.nbytes


def test_identity_residuals_make_no_complex_difference(monkeypatch):
    # given P S phi, each residual holds one float array of the mesh's
    # |r|^2 (half a complex mesh) and block-sized scratch, where a complex
    # difference alone is a whole complex mesh
    metric, p, q, grid = dirac_on("flat", "line", 512)
    phi = make_test_section(grid, ["1", "0.5"], (0.0, 0.05, 2.5), (0.0, 0.02, 10.0))
    s_phi = random_section(grid, 4)
    p_s_phi = apply_operator(p, s_phi)
    phi.values
    monkeypatch.setattr(greens, "apply_operator", lambda op, section: p_s_phi)
    mesh = s_phi.values.nbytes
    _, peak = traced_peak(lambda: greens._left_inverse_residual(p, phi, s_phi))
    assert peak < 0.75 * mesh
    _, peak = traced_peak(lambda: greens._right_inverse_residual(phi, s_phi))
    assert peak < 0.75 * mesh


# ---------------------------------------------------------------------------
# Tape.stack

COMPONENTS = ["1.5", "cos(3*x)", "exp(t) * sin(7*x*t) + 2", "tanh((t - 0.01) / 0.1) * x^2 / (1 + t^2)", "t"]


def whole_mesh_stack(tape, t):
    shape = np.broadcast_shapes(np.shape(t), tape.xs.shape)
    return np.stack([np.broadcast_to(v, shape) for v in tape(t)], axis=-1).astype(complex, copy=False)


@pytest.mark.parametrize("levels", [None, 9, 1])
def test_blocked_stack_is_the_whole_mesh_stack(monkeypatch, grid_small, levels):
    if levels is not None:
        monkeypatch.setattr(grids, "BLOCK_BYTES", levels * grid_small.nx * len(COMPONENTS) * 16)
    asts = [as_ast(c) for c in COMPONENTS]
    for t in (grid_small.ts[:, None], grid_small.ts[5:40, None], 0.125):
        got = Tape(asts, grid_small.xs).stack(t)
        want = whole_mesh_stack(Tape(asts, grid_small.xs), t)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_blocked_stack_raises_the_whole_mesh_error(monkeypatch, grid_small):
    # the first slot is non-finite at late levels only, the second at
    # early ones: the first block fails in the second, the whole mesh in
    # the first, and the error is the whole mesh's
    monkeypatch.setattr(grids, "BLOCK_BYTES", 4 * grid_small.nx * 2 * 16)
    t = grid_small.ts[:, None]
    asts = [as_ast("sqrt(0.2 - t)"), as_ast("(t + 0.2)^0.5")]
    with pytest.raises(ExprEvalError) as whole:
        Tape(asts, grid_small.xs)(t)
    first = int(np.argmax(grid_small.ts > 0.2))
    assert str(whole.value) == f"non-finite result from sqrt at (t={grid_small.ts[first]}, x={grid_small.xs[0]})"
    with pytest.raises(ExprEvalError) as blocked:
        Tape(asts, grid_small.xs).stack(t)
    assert str(blocked.value) == str(whole.value)
    with pytest.raises(ExprEvalError, match="from power"):
        Tape(asts, grid_small.xs)(t[:4])
