"""End-to-end acceptance battery.

Each test prints a single summary line with the measured quantity and the
tolerance it is gated against, then asserts it.  Tolerances and grid
resolutions are stated inline; ladders measure the observed convergence
order as log2(error_coarse / error_fine) between successive refinements.
"""

import json
import time

import numpy as np
import pytest

from prehyp.bundle_ops import is_complementary_pair, principal_symbol_1, symbol_invertibility
from prehyp.cauchy import compatibility_round_trip, solve_cauchy, solve_cauchy_plain, solve_first_order_direct
from prehyp.cli import run, write_report
from prehyp.config import load_config_text
from prehyp.geometry import CauchyLine, Chart1p1, DiagonalMetric, minkowski
from prehyp.grids import CauchyData, build_grid, make_cauchy_data, plateau_window
from prehyp.greens import (
    adjoint_pairing_check,
    greens_report,
    identity_i_residual,
    identity_ii_residual,
    make_test_section,
)
from prehyp.qft_dirac import (
    DiracModel,
    beta_sigma,
    build_dirac_pair,
    data_space_isometry_check,
    hypersurface_independence,
)

CHART = Chart1p1(-0.3, 0.3, -1.0, 1.0)
MINK = minkowski(CHART)
WINDOW = (0.0, 0.05, 2.5)


def announce(idx, name, passed, detail):
    print(f"\n[{idx}/9] {name}: {'PASS' if passed else 'FAIL'} ({detail})")


def order(coarse, fine):
    return float(np.log2(coarse / fine)) if fine > 0 else float("inf")


def dirac_data(grid, components=("1", "0.5"), steepness=2.5):
    return make_cauchy_data(grid, list(components), 0.0, WINDOW[0], WINDOW[1], steepness)


def test_1_pair_predicate_on_dirac():
    start = time.perf_counter()
    p, q = build_dirac_pair(DiracModel(mass=1.0), MINK)
    rep = is_complementary_pair(p, q, MINK)
    elapsed = time.perf_counter() - start
    ok = rep.passed and rep.max_deviation <= 1e-12 and elapsed < 1.0
    announce(1, "complementary-pair predicate",
             ok, f"max symbol deviation {rep.max_deviation:.2e} <= 1e-12, {elapsed:.2f}s < 1s")
    assert rep.passed
    assert rep.max_deviation <= 1e-12
    assert elapsed < 1.0


def test_2_symbol_invertibility_probe():
    start = time.perf_counter()
    p, _ = build_dirac_pair(DiracModel(mass=1.0), MINK)
    rng = np.random.default_rng(0)
    worst_margin = np.inf
    all_inv = True
    count = 0
    while count < 200:
        t = rng.uniform(CHART.t_min, CHART.t_max)
        x = rng.uniform(CHART.x_min, CHART.x_max)
        xi = tuple(rng.uniform(-1.0, 1.0, size=2))
        g = MINK.inverse_on_covector((t, x), xi)
        if abs(g) < 1e-3:  # skip near-null covectors
            continue
        count += 1
        rep = symbol_invertibility(p, (t, x), xi)
        all_inv &= rep.invertible
        worst_margin = min(worst_margin, rep.abs_det - abs(g))
    elapsed = time.perf_counter() - start
    ok = all_inv and worst_margin >= -1e-10 and elapsed < 1.0
    announce(2, "non-null symbol invertibility (200 covectors)",
             ok, f"min |det|-|g| margin {worst_margin:.2e} >= -1e-10, {elapsed:.2f}s < 1s")
    assert all_inv
    assert worst_margin >= -1e-10
    assert elapsed < 1.0


def test_3_cauchy_convergence_and_characteristic_oracle():
    start = time.perf_counter()
    ladders = {}
    for mass in (0.0, 1.0):
        p, q = build_dirac_pair(DiracModel(mass=mass), MINK)
        errs = []
        for nx in (256, 512, 1024):
            grid = build_grid(CHART, MINK, nx)
            phi0 = dirac_data(grid)
            phi, rep = solve_cauchy(p, q, MINK, phi0, grid)
            errs.append(rep.residual_l2)
            if mass == 0.0 and nx == 1024:
                # components ride the two characteristics from the level
                # the data snapped to
                j = grid.nt - 1
                t = float(grid.ts[j]) - phi0.t0
                ref1 = plateau_window(grid.xs - t, *WINDOW)
                ref2 = 0.5 * plateau_window(grid.xs + t, *WINDOW)
                oracle_err = max(
                    float(np.max(np.abs(phi.values[j, :, 0] - ref1))),
                    float(np.max(np.abs(phi.values[j, :, 1] - ref2))),
                )
        ladders[mass] = [order(c, f) for c, f in zip(errs, errs[1:])]
    elapsed = time.perf_counter() - start
    final_orders = {m: o[-1] for m, o in ladders.items()}
    ok = all(o >= 1.8 for o in final_orders.values()) and oracle_err <= 5e-4 and elapsed < 60
    announce(3, "Cauchy solve convergence + characteristic oracle", ok,
             f"residual orders massless {final_orders[0.0]:.2f} / massive {final_orders[1.0]:.2f} >= 1.8, "
             f"oracle Linf {oracle_err:.2e} <= 5e-4 at nx=1024, {elapsed:.1f}s < 60s")
    assert final_orders[0.0] >= 1.8 and final_orders[1.0] >= 1.8
    assert oracle_err <= 5e-4
    assert elapsed < 60


PRESET_CFG = """
[spacetime]
alpha = 1
beta = 1
t_range = [-0.3, 0.3]
x_range = [-1, 1]

[operator_P]
preset = {preset}
mass = 1.0

[grid]
nx = 1024
cfl = 0.4

[initial_data]
components = {components}
window_center = 0.0
window_halfwidth = 0.05
window_steepness = 2.5
"""


def test_4_reduction_equivalence_on_all_presets():
    from prehyp.cli import run_direct_vs_reduced

    worst_final = 0.0
    worst_order = np.inf
    details = []
    for preset, comps in (
        ("dirac_massive", "[1, 0.5]"),
        ("dirac_massless", "[1, 0.5]"),
        ("scalar_transport_pair", "[1]"),
        ("klein_gordon_factorized", "[1, 0.5]"),
    ):
        cfg = load_config_text(PRESET_CFG.format(preset=preset, components=comps))
        errs = [run_direct_vs_reduced(cfg, 0, nx)[0]["mismatch"] for nx in (256, 512, 1024)]
        o = order(errs[1], errs[2])
        worst_final = max(worst_final, errs[2])
        worst_order = min(worst_order, o)
        details.append(f"{preset} {errs[2]:.2e}/{o:.2f}")
    ok = worst_final <= 1e-3 and worst_order >= 1.8
    announce(4, "first-order vs reduced second-order solve (all presets)", ok,
             f"mismatch<=1e-3 and order>=1.8 at nx=1024: " + ", ".join(details))
    assert worst_final <= 1e-3
    assert worst_order >= 1.8


def test_5_finite_propagation_leak():
    leaks = {}
    for name, metric in (("unit-speed", MINK), ("half-speed", DiagonalMetric("1", "2", CHART))):
        grid = build_grid(CHART, metric, 1024)
        p, q = build_dirac_pair(DiracModel(mass=1.0), metric)
        phi0 = dirac_data(grid)
        _, rep = solve_cauchy(p, q, metric, phi0, grid)
        leaks[name] = rep.support_leak
    worst = max(leaks.values())
    ok = worst <= 1e-7
    announce(5, "finite propagation speed (leak outside inflated causal shadow)", ok,
             f"max relative leak {worst:.2e} <= 1e-7 at nx=1024 "
             f"({', '.join(f'{k} {v:.1e}' for k, v in leaks.items())})")
    assert worst <= 1e-7


def test_6_greens_identities_and_adjoint_pairing():
    start = time.perf_counter()
    p, q = build_dirac_pair(DiracModel(mass=1.0), MINK)
    x_win = (0.0, 0.05, 2.5)
    t_win = (0.0, 0.03, 10.0)

    i_errs, ii_errs, leaks = [], [], []
    for nx in (256, 512, 1024):
        grid = build_grid(CHART, MINK, nx)
        phi = make_test_section(grid, ["1", "0.5"], x_win, t_win)
        if nx == 1024:
            reports = [greens_report(p, q, MINK, phi, d, grid)[0] for d in ("retarded", "advanced")]
            i_errs.append(reports[0].identity_i)
            ii_errs.append(reports[1].identity_ii)
            leaks.extend(rep.support_leak for rep in reports)
        else:
            i_errs.append(identity_i_residual(p, q, MINK, phi, "retarded", grid))
            ii_errs.append(identity_ii_residual(p, q, MINK, phi, "advanced", grid))
    order_i = order(i_errs[1], i_errs[2])
    order_ii = order(ii_errs[1], ii_errs[2])

    # the discrete pairing is exactly adjoint for constant coefficients, so
    # the defect order is measured on a time-dependent metric
    g_var = DiagonalMetric("1+0.1*sin(t)", "1+0.3*cos(2*x)", CHART)
    p_v, q_v = build_dirac_pair(DiracModel(mass=1.0), g_var)
    defects = []
    for nx in (256, 512, 1024):
        grid = build_grid(CHART, g_var, nx)
        f = make_test_section(grid, ["1", "0.5"], x_win, t_win)
        psi = make_test_section(grid, ["0.5", "1"], (0.2, 0.05, 2.5), t_win)
        defects.append(adjoint_pairing_check(p_v, q_v, g_var, psi, f, None, grid).defect)
    order_pairing = order(defects[1], defects[2])

    grid512 = build_grid(CHART, MINK, 512)
    f512 = make_test_section(grid512, ["1", "0.5"], x_win, t_win)
    psi512 = make_test_section(grid512, ["0.5", "1"], (0.2, 0.05, 2.5), t_win)
    control = adjoint_pairing_check(p, q, MINK, psi512, f512, None, grid512).mismatch_control
    elapsed = time.perf_counter() - start

    ok = (
        order_i >= 1.8 and order_ii >= 1.8
        and max(leaks) <= 1e-7
        and defects[2] <= 1e-3 and order_pairing >= 1.8
        and control >= 1e-1 and elapsed < 120
    )
    announce(6, "Green's operator identities + dual pairing", ok,
             f"identity orders {order_i:.2f}/{order_ii:.2f} >= 1.8, "
             f"leak {max(leaks):.1e} <= 1e-7, pairing defect {defects[2]:.2e} <= 1e-3 "
             f"order {order_pairing:.2f} >= 1.8, mismatch control {control:.2f} >= 0.1, "
             f"{elapsed:.1f}s < 120s")
    assert order_i >= 1.8 and order_ii >= 1.8
    assert max(leaks) <= 1e-7
    assert defects[2] <= 1e-3 and order_pairing >= 1.8
    assert control >= 1e-1
    assert elapsed < 120


def test_7_hypersurface_round_trip():
    p, q = build_dirac_pair(DiracModel(mass=1.0), MINK)
    sigma, sigma_prime = CauchyLine(0.0), CauchyLine(0.1)
    errs = []
    for nx in (256, 512, 1024):
        grid = build_grid(CHART, MINK, nx)
        phi0 = dirac_data(grid, steepness=5.0)
        errs.append(compatibility_round_trip(p, q, MINK, phi0, sigma, sigma_prime, grid).round_trip_error)
    o = order(errs[1], errs[2])

    grid = build_grid(CHART, MINK, 256)
    a = dirac_data(grid, ("1", "0"), steepness=5.0)
    b = dirac_data(grid, ("x", "1"), steepness=5.0)
    combo = CauchyData(grid, 0.0, 2.0 * a.values + 3j * b.values, a.support)

    def back(data):
        return compatibility_round_trip(p, q, MINK, data, sigma, sigma_prime, grid).data_back.values

    lin_gap = float(np.max(np.abs(back(combo) - 2.0 * back(a) - 3j * back(b))))
    ok = errs[2] <= 1e-3 and o >= 1.8 and lin_gap <= 1e-12
    announce(7, "solve-restrict-resolve round trip", ok,
             f"Linf error {errs[2]:.2e} <= 1e-3 at nx=1024, order {o:.2f} >= 1.8, "
             f"linearity gap {lin_gap:.1e} <= 1e-12")
    assert errs[2] <= 1e-3
    assert o >= 1.8
    assert lin_gap <= 1e-12


def test_8_cauchy_line_product_quantization_data():
    model = DiracModel(mass=1.0)
    p, q = build_dirac_pair(model, MINK)
    corpus_specs = (["1", "0"], ["x", "1"], ["cos(3*x)", "0.5"])

    def solved_corpus(nx):
        grid = build_grid(CHART, MINK, nx)
        data = [dirac_data(grid, comps) for comps in corpus_specs]
        sols = [solve_cauchy_plain(p, q, MINK, d, grid) for d in data]
        return grid, data, sols

    grid, data, sols = solved_corpus(512)
    sigma = CauchyLine(0.0)

    min_norm = min(beta_sigma(s, s, sigma, MINK).real for s in sols)
    herm = 0.0
    for a in sols:
        for b in sols:
            lhs = beta_sigma(a, b, sigma, MINK)
            rhs = np.conj(beta_sigma(b, a, sigma, MINK))
            herm = max(herm, abs(lhs - rhs) / max(abs(lhs), 1.0))

    def drift(nx):
        g = build_grid(CHART, MINK, nx)
        d = dirac_data(g)
        s = solve_cauchy_plain(p, q, MINK, d, g)
        levels = [float(g.ts[int(round(f * (g.nt - 1)))]) for f in (0.2, 0.35, 0.5, 0.65, 0.8)]
        return hypersurface_independence(s, s, levels, MINK).hypersurface_drift

    d512, d1024 = drift(512), drift(1024)
    drift_order = order(d512, d1024)

    frozen = sols[0].values.copy()
    frozen[:] = frozen[grid.level_of(0.0)]
    from prehyp.grids import GridSection
    off_shell = hypersurface_independence(
        sols[0], GridSection(grid, frozen), [0.0, 0.2], MINK
    ).hypersurface_drift

    _, _, sols1024 = solved_corpus(1024)
    iso = data_space_isometry_check(sols1024, sigma, CauchyLine(0.15), MINK)

    ok = (
        min_norm > 0 and herm <= 1e-12 and drift_order >= 1.8
        and off_shell >= 1e-2 and iso.gram_mismatch <= 1e-3
    )
    announce(8, "Dirac-current product on Cauchy lines", ok,
             f"min norm {min_norm:.3f} > 0, Hermitian defect {herm:.1e} <= 1e-12, "
             f"drift order {drift_order:.2f} >= 1.8, off-shell control {off_shell:.2e} >= 1e-2, "
             f"Gram mismatch {iso.gram_mismatch:.2e} <= 1e-3 at nx=1024")
    assert min_norm > 0
    assert herm <= 1e-12
    assert drift_order >= 1.8
    assert off_shell >= 1e-2
    assert iso.gram_mismatch <= 1e-3


def test_9_verify_all_reports_are_byte_identical(tmp_path):
    cfg = load_config_text(
        PRESET_CFG.format(preset="scalar_transport_pair", components="[1]").replace(
            "nx = 1024", "nx = 512"
        )
    )
    paths = []
    for name in ("first", "second"):
        report, _, _ = run("verify-all", cfg, seed=0)
        paths.append(write_report(report, str(tmp_path / name)))
    a = (tmp_path / "first" / "report.json").read_bytes()
    b = (tmp_path / "second" / "report.json").read_bytes()
    ok = a == b and json.loads(a)["passed"]
    announce(9, "deterministic verification reports", ok,
             f"two verify-all runs, report.json identical: {a == b}, "
             f"all batteries passed: {json.loads(a)['passed']}")
    assert a == b
    assert json.loads(a)["passed"]
