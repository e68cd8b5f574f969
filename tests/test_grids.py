import numpy as np
import pytest

from prehyp.geometry import Chart1p1, DiagonalMetric, minkowski
from prehyp.grids import (
    CFLError,
    GridSection,
    MarginError,
    build_grid,
    check_causal_margin,
    d_t,
    d_tt,
    d_x,
    d_xx,
    make_cauchy_data,
    plateau_window,
    smooth_step,
    window_support,
)


class TestBuildGrid:
    def test_spacing_and_cfl(self, chart, mink):
        g = build_grid(chart, mink, 101, cfl=0.4)
        assert g.nx == 101
        assert g.dx == pytest.approx(0.02)
        assert g.dt <= 0.4 * g.dx + 1e-15
        assert g.ts[0] == chart.t_min and g.ts[-1] == pytest.approx(chart.t_max)
        g.check_cfl(mink.max_light_speed())

    def test_fast_metric_shrinks_dt(self, chart):
        fast = DiagonalMetric("2", "1", chart)  # light speed 2
        slow = DiagonalMetric("1", "1", chart)
        gf = build_grid(chart, fast, 128)
        gs = build_grid(chart, slow, 128)
        assert gf.dt < gs.dt

    def test_cfl_violation_detected(self, chart, mink):
        g = build_grid(chart, mink, 128, cfl=0.9)
        with pytest.raises(CFLError):
            g.check_cfl(2.0)  # grid sized for speed 1, checked against speed 2

    def test_bad_parameters(self, chart, mink):
        with pytest.raises(ValueError):
            build_grid(chart, mink, 4)
        with pytest.raises(ValueError):
            build_grid(chart, mink, 128, cfl=1.5)

    def test_circle_excludes_duplicate_node(self):
        chart = Chart1p1(0.0, 0.1, -1.0, 1.0, topology="circle")
        g = build_grid(chart, minkowski(chart), 64)
        assert g.nx == 64
        assert g.dx == pytest.approx(2.0 / 64)
        assert g.xs[-1] < 1.0  # seam node not duplicated

    def test_level_of_snaps(self, grid_small):
        j = grid_small.level_of(0.0)
        assert abs(grid_small.ts[j]) <= grid_small.dt / 2 + 1e-15


class TestStencils:
    def poly_section(self, grid, f):
        tt, xx = np.meshgrid(grid.ts, grid.xs, indexing="ij")
        return f(tt, xx)[..., None].astype(complex)

    def test_d_x_exact_on_quadratics(self, grid_small):
        v = self.poly_section(grid_small, lambda t, x: 3 * x**2 + 2 * x + 1)
        out = d_x(v, grid_small)
        tt, xx = np.meshgrid(grid_small.ts, grid_small.xs, indexing="ij")
        assert np.max(np.abs(out[..., 0] - (6 * xx + 2))) < 1e-10

    def test_d_xx_exact_on_cubics(self, grid_small):
        v = self.poly_section(grid_small, lambda t, x: x**3)
        out = d_xx(v, grid_small)
        xx = np.broadcast_to(grid_small.xs, out[..., 0].shape)
        # centered interior is exact on cubics; edges are 1st order one-sided
        assert np.max(np.abs(out[:, 1:-1, 0] - 6 * xx[:, 1:-1])) < 1e-9

    def test_d_t_exact_on_quadratics(self, grid_small):
        v = self.poly_section(grid_small, lambda t, x: t**2 - t)
        out = d_t(v, grid_small)
        tt = np.broadcast_to(grid_small.ts[:, None], out[..., 0].shape)
        assert np.max(np.abs(out[..., 0] - (2 * tt - 1))) < 1e-10

    def test_d_tt_exact_on_quadratics(self, grid_small):
        v = self.poly_section(grid_small, lambda t, x: 4 * t**2)
        out = d_tt(v, grid_small)
        assert np.max(np.abs(out[..., 0] - 8.0)) < 1e-8

    def test_periodic_d_x(self):
        chart = Chart1p1(0.0, 0.1, -1.0, 1.0, topology="circle")
        g = build_grid(chart, minkowski(chart), 256)
        v = np.sin(np.pi * g.xs)[None, :, None].astype(complex)
        out = d_x(v, g)
        ref = np.pi * np.cos(np.pi * g.xs)
        assert np.max(np.abs(out[0, :, 0] - ref)) < 5e-4  # O(dx^2), incl. seam


# The stencils as complex formulas, the reference for the float64-view
# stencils of prehyp.grids: the values must be equal under np.array_equal.

def reference_d_x(v, grid):
    dx = grid.dx
    if grid.periodic:
        return (np.roll(v, -1, axis=-2) - np.roll(v, 1, axis=-2)) / (2 * dx)
    out = np.empty_like(v)
    out[..., 1:-1, :] = (v[..., 2:, :] - v[..., :-2, :]) / (2 * dx)
    out[..., 0, :] = (-3 * v[..., 0, :] + 4 * v[..., 1, :] - v[..., 2, :]) / (2 * dx)
    out[..., -1, :] = (3 * v[..., -1, :] - 4 * v[..., -2, :] + v[..., -3, :]) / (2 * dx)
    return out


def reference_d_xx(v, grid):
    dx2 = grid.dx**2
    if grid.periodic:
        return (np.roll(v, -1, axis=-2) - 2 * v + np.roll(v, 1, axis=-2)) / dx2
    out = np.empty_like(v)
    out[..., 1:-1, :] = (v[..., 2:, :] - 2 * v[..., 1:-1, :] + v[..., :-2, :]) / dx2
    out[..., 0, :] = (2 * v[..., 0, :] - 5 * v[..., 1, :] + 4 * v[..., 2, :] - v[..., 3, :]) / dx2
    out[..., -1, :] = (2 * v[..., -1, :] - 5 * v[..., -2, :] + 4 * v[..., -3, :] - v[..., -4, :]) / dx2
    return out


def reference_d_t(v, grid):
    dt = grid.dt
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2 * dt)
    out[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * dt)
    out[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * dt)
    return out


def reference_d_tt(v, grid):
    dt2 = grid.dt**2
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / dt2
    out[0] = (2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]) / dt2
    out[-1] = (2 * v[-1] - 5 * v[-2] + 4 * v[-3] - v[-4]) / dt2
    return out


STENCILS = [(d_x, reference_d_x), (d_xx, reference_d_xx), (d_t, reference_d_t), (d_tt, reference_d_tt)]

# per stencil: its spacing on a grid, its axis and its order
EDGES = {
    d_x: (lambda g: 2 * g.dx, -2, 1), d_xx: (lambda g: g.dx**2, -2, 2),
    d_t: (lambda g: 2 * g.dt, 0, 1), d_tt: (lambda g: g.dt**2, 0, 2),
}


def float_rows(v):
    # the float64 view the stencils run on, a single axis made a column
    v = np.ascontiguousarray(v)
    v = v[:, None] if v.ndim == 1 else v
    return v.view(np.float64) if v.dtype == complex else v


def reference_edge_rows(v, grid, stencil):
    """The edge rows 0 and n - 1 of a stencil along its axis as the calls
    that wrote them one at a time, on the float64 view, then scaled by
    1 / h, or over h for real values.  One-sided on a line: (c1 e0 + c2 e1)
    - c3 e2 with c1, c2, c3 = (-3, 3), (4, -4), (1, -1) for the pair (left,
    right) at order 1, ((2 e0 - 5 e1) + 4 e2) - e3 at order 2, e_i the rows
    i and n - 1 - i.  Wrapped on a circle, with v-i the row n - i: v1 - v-1
    and v0 - v-2 at order 1, (v1 - 2 v0) + v-1 and (v0 - 2 v-1) + v-2 at
    order 2."""
    spacing, axis, order = EDGES[stencil]
    h, w = spacing(grid), float_rows(v)
    n = w.shape[axis]

    def rows(*indices):
        return np.take(w, indices, axis=axis)

    def sides(left, right):
        return np.reshape([float(left), float(right)], (2,) + (1,) * (w.ndim - 1 - axis % w.ndim))

    if grid.periodic and stencil in (d_x, d_xx):
        if order == 1:
            edge = np.subtract(rows(1, 0), rows(n - 1, n - 2))
        else:
            edge = np.subtract(rows(1, 0), np.multiply(2.0, rows(0, n - 1)))
            edge = np.add(edge, rows(n - 1, n - 2))
    elif order == 1:
        e = [rows(i, n - 1 - i) for i in range(3)]
        edge = np.multiply(sides(-3, 3), e[0])
        edge = np.add(edge, np.multiply(sides(4, -4), e[1]))
        edge = np.subtract(edge, np.multiply(sides(1, -1), e[2]))
    else:
        e = [rows(i, n - 1 - i) for i in range(4)]
        edge = np.multiply(e[0], 2.0)
        edge = np.subtract(edge, np.multiply(5.0, e[1]))
        edge = np.add(edge, np.multiply(4.0, e[2]))
        edge = np.subtract(edge, e[3])
    return edge * (1.0 / h) if np.iscomplexobj(v) else edge / h


def assert_edge_bytes(stencil, v, grid, got):
    # equal bytes, which np.array_equal does not check: it equates 0 and -0
    axis = EDGES[stencil][1]
    w = float_rows(got)
    edge = np.take(w, [0, w.shape[axis] - 1], axis=axis)
    assert edge.tobytes() == reference_edge_rows(v, grid, stencil).tobytes(), (stencil.__name__, v.shape)


def stencil_input(rng, shape, kind):
    """Values of the given shape, zero on the first third of axis -2 (zeros
    of random sign, and exact cancellations), as a C-order complex or real
    array, a stride-0 broadcast along the leading or the last axis, or a
    view whose last axis is not contiguous."""
    base = rng.standard_normal(shape) + (0 if kind == "real" else 1j * rng.standard_normal(shape))
    zeros = base[..., : shape[-2] // 3, :]
    zeros.real = np.copysign(0.0, zeros.real)
    if kind != "real":
        zeros.imag = np.copysign(0.0, zeros.imag)
    if kind == "broadcast leading":
        return np.broadcast_to(base[:1], shape)
    if kind == "broadcast last":
        return np.broadcast_to(base[..., :1], shape)
    if kind == "non-contiguous":
        wide = np.zeros(shape[:-1] + (2 * shape[-1],), dtype=complex)
        wide[..., ::2] = base
        return wide[..., ::2]
    return base


@pytest.mark.parametrize("kind", ["complex", "real", "broadcast leading", "broadcast last", "non-contiguous"])
@pytest.mark.parametrize("nx", [8, 9, 512])
@pytest.mark.parametrize("topology", ["line", "circle"])
def test_stencils_equal_the_complex_formulas(topology, nx, kind):
    chart = Chart1p1(-0.3, 0.3, -1.0, 1.0, topology=topology)
    grid = build_grid(chart, minkowski(chart), nx)
    rng = np.random.default_rng(nx)
    for shape in [(nx, 2), (2, nx, 2), (grid.nt, nx, 2), (grid.nt, nx, 1)]:
        v = stencil_input(rng, shape, kind)
        # the time stencils along the leading axis, which a stack of two lacks
        for stencil, reference in STENCILS if shape[0] > 2 else STENCILS[:2]:
            got, want = stencil(v, grid), reference(v, grid)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want), (stencil.__name__, shape)
            assert_edge_bytes(stencil, v, grid, got)


@pytest.mark.parametrize("nt", [3, 4, 5, 6, 7, 8, 9])
def test_time_stencils_on_few_levels(grid_small, nt):
    # the edge rows overlap or cross on so few levels
    v = stencil_input(np.random.default_rng(nt), (nt, 8, 2), "complex")
    for stencil, reference in STENCILS[2:] if nt >= 4 else STENCILS[2:3]:
        for values in (v, v[:, 0, 0]):
            got = stencil(values, grid_small)
            assert np.array_equal(got, reference(values, grid_small))
            assert_edge_bytes(stencil, values, grid_small, got)
    if nt < 4:
        with pytest.raises(ValueError, match="needs 4 rows"):
            d_tt(v, grid_small)


def test_complex_over_real_is_the_product_with_the_reciprocal(chart, mink):
    # the stencils scale the float64 view by 1 / h, which equals numpy's
    # complex-by-real division only while numpy divides that way
    rng = np.random.default_rng(3)
    v = rng.standard_normal((256, 2)) + 1j * rng.standard_normal((256, 2))
    grids = [build_grid(chart, mink, nx) for nx in (128, 256, 512, 1024)]
    spacings = [h for g in grids for h in (2 * g.dx, g.dx**2, 2 * g.dt, g.dt**2)]
    for h in spacings + list(rng.uniform(1e-6, 10.0, 50)):
        h = float(h)
        assert (v / h).view(np.float64).tobytes() == (v.view(np.float64) * (1.0 / h)).tobytes()


class TestWindows:
    def test_smooth_step_endpoints(self):
        u = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
        out = smooth_step(u)
        assert out[0] == 0.0 and out[1] == 0.0
        assert out[3] == 1.0 and out[4] == 1.0
        assert 0.0 < out[2] < 1.0

    def test_plateau_exact_support_and_plateau(self):
        xs = np.linspace(-1, 1, 2001)
        w = plateau_window(xs, 0.0, 0.1, 4.0)
        lo, hi = window_support(0.0, 0.1, 4.0)
        assert (lo, hi) == (-0.35, 0.35)
        assert np.all(w[np.abs(xs) > 0.35 + 1e-12] == 0.0)
        assert np.all(w[np.abs(xs) <= 0.1] == 1.0)
        assert np.all((w >= 0.0) & (w <= 1.0))

    def test_plateau_rejects_bad_steepness(self):
        with pytest.raises(ValueError):
            plateau_window(np.zeros(3), 0.0, 0.1, 0.0)


class TestCauchyData:
    def test_make_and_validate(self, grid_medium):
        data = make_cauchy_data(grid_medium, ["1", "x"], 0.0)
        assert data.k == 2
        data.validate_support()
        mask = (grid_medium.xs >= -0.05) & (grid_medium.xs <= 0.05)
        assert np.allclose(data.values[mask, 0], 1.0)
        assert np.allclose(data.values[mask, 1], grid_medium.xs[mask])

    def test_validate_support_catches_violation(self, grid_medium):
        data = make_cauchy_data(grid_medium, ["1"], 0.0)
        data.values[0, 0] = 1e-6  # poke a value outside the support
        with pytest.raises(ValueError):
            data.validate_support()

    def test_zero_section_helper(self, grid_small):
        s = GridSection.zeros(grid_small, 2)
        assert s.values.shape == (grid_small.nt, grid_small.nx, 2)
        assert s.linf() == 0.0


class TestCausalMargin:
    def test_interior_support_passes(self, mink, grid_medium):
        check_causal_margin(mink, grid_medium, (-0.2, 0.2), t0=0.0)

    def test_boundary_support_fails(self, mink, grid_medium):
        with pytest.raises(MarginError):
            check_causal_margin(mink, grid_medium, (0.5, 0.9), t0=0.0)

    def test_circle_always_passes(self):
        chart = Chart1p1(-0.3, 0.3, -1.0, 1.0, topology="circle")
        g = build_grid(chart, minkowski(chart), 128)
        check_causal_margin(minkowski(chart), g, (0.5, 0.99), t0=0.0)
