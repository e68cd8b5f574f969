import dataclasses

import numpy as np
import pytest

from prehyp.bundle_ops import is_complementary_pair
from prehyp.config import (
    PRESETS,
    ConfigError,
    load_config,
    load_config_text,
    parse_config_text,
    resolve_preset,
)
from prehyp.geometry import DiagonalMetric
from prehyp.greens import make_test_section
from prehyp.grids import window_support

BASE = """
[spacetime]
alpha = 1
beta = 1
t_range = [-0.3, 0.3]
x_range = [-1, 1]

[operator_P]
preset = dirac_massive
mass = 1.0

[grid]
nx = 128
cfl = 0.4

[initial_data]
components = [1, 0.5]
window_center = 0.0
window_halfwidth = 0.05
window_steepness = 2.5

[output]
directory = out
formats = [json]
"""


class TestParser:
    def test_sections_and_values(self):
        s = parse_config_text("[a]\nx = 1\ny = 2.5\nz = hello\n[b]\nw = [1, [2, 3]]\n")
        assert s["a"] == {"x": 1, "y": 2.5, "z": "hello"}
        assert s["b"]["w"] == [1, [2, 3]]
        assert isinstance(s["a"]["x"], int)

    def test_comments_and_blank_lines(self):
        s = parse_config_text("# leading\n[a]\n\nx = 1  # trailing\n")
        assert s == {"a": {"x": 1}}

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("x = 1\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("[a]\njust words\n")

    def test_unbalanced_bracket(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("[a]\nx = [1, [2]\n")

    def test_empty_key(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_config_text("[a]\n = 1\n")


class TestPresets:
    @pytest.fixture
    def metric(self, chart):
        return DiagonalMetric("1", "2", chart)

    def test_dirac_mass_is_imaginary(self, mink):
        p, q = resolve_preset("dirac_massive", 2.0, mink)
        assert p.k == q.k == 2
        assert p.b.scalar == 2j
        assert q.b.scalar == -2j

    def test_scalar_transport_rank_one(self, metric):
        p, q = resolve_preset("scalar_transport_pair", 0.0, metric)
        assert p.k == q.k == 1
        assert p.a_x.scalar == 0.5
        assert q.a_x.scalar == -0.5

    def test_klein_gordon_mass_coupling(self, mink):
        p, q = resolve_preset("klein_gordon_factorized", 1.5, mink)
        assert p.k == 2
        np.testing.assert_array_equal(p.b.constant, [[0, 1.5], [-1.5, 0]])
        np.testing.assert_array_equal(q.b.constant, [[0, -1.5], [1.5, 0]])

    def test_unknown_preset(self, mink):
        with pytest.raises(ConfigError, match="known presets"):
            resolve_preset("nonsense", 1.0, mink)

    @pytest.mark.parametrize(
        "preset", ["dirac_massive", "dirac_massless", "scalar_transport_pair", "klein_gordon_factorized"]
    )
    def test_every_preset_resolves_to_a_pair(self, preset):
        text = BASE.replace("preset = dirac_massive", f"preset = {preset}")
        if preset in ("scalar_transport_pair",):
            text = text.replace("components = [1, 0.5]", "components = [1]")
        cfg = load_config_text(text)
        p, q = cfg.operators()
        assert is_complementary_pair(p, q, cfg.metric()).passed


SCALAR = BASE.replace("preset = dirac_massive", "preset = scalar_transport_pair").replace(
    "components = [1, 0.5]", "components = [1]"
)

EXPLICIT = SCALAR.replace("preset = scalar_transport_pair\nmass = 1.0\n", """A_t = [[1]]
A_x = [[1]]
B = [[0]]

[operator_Q]
A_t = [[1]]
A_x = [[-1]]
B = [[0]]

[bundle]
rank = 1
""")


class TestLoadValidation:
    def test_base_config_loads(self):
        cfg = load_config_text(BASE)
        assert cfg.preset == "dirac_massive"
        assert cfg.pair[0].k == 2
        assert cfg.nx == 128
        assert cfg.t0 == 0.0
        assert cfg.initial_components == ["1", "0.5"]

    def test_loaded_config_is_frozen(self):
        # a field set after load would reach new resolutions but not the
        # scenario built at load; variants are fresh configs instead
        cfg = load_config_text(BASE)
        massless = resolve_preset("dirac_massless", 0.0, cfg.metric())
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.pair = massless
        variant = dataclasses.replace(cfg, pair=massless)
        assert variant.scenario().p is massless[0] and variant.scenario().q is massless[1]
        assert cfg.scenario().p is cfg.pair[0]
        assert variant.sections is cfg.sections

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="spacetime.alpha required"):
            load_config_text(BASE.replace("alpha = 1\n", ""))

    def test_bad_expression_reports_name_and_offset(self):
        with pytest.raises(ConfigError, match=r"spacetime\.alpha.*offset"):
            load_config_text(BASE.replace("alpha = 1", "alpha = 1+%"))

    @pytest.mark.parametrize("old, new, message", [
        ("beta = 1", "beta = 1+$x", "line 4: spacetime.beta: unexpected character '$'"),
        ("t_range = [-0.3, 0.3]", "t_range = [0.3, -0.3]", "line 5: spacetime.t_range must be increasing"),
        ("beta = 1", "beta = 2-3*x^2", "line 4: spacetime.beta must be strictly positive"),
        ("nx = 128", "nx = inf", "line 13: grid.nx must be an integer"),
        ("cfl = 0.4", "cfl = fast", "line 14: grid.cfl must be a number"),
        ("mass = 1.0", "mass = [1]", "line 10: operator_P.mass must be a number"),
        ("window_halfwidth = 0.05", "window_halfwidth = 0", "line 19: initial_data.window_halfwidth must be positive"),
        ("window_center = 0.0", "window_center = 0.9", "line 18: initial_data.window: causal margin"),
        ("formats = [json]", "formats = [xml]", "line 24: output.formats: unknown format"),
    ])
    def test_errors_about_a_present_key_name_its_line(self, old, new, message):
        with pytest.raises(ConfigError) as exc:
            load_config_text(BASE.replace(old, new))
        assert str(exc.value).startswith(message)

    @pytest.mark.parametrize("base, old, new, message", [
        (SCALAR, "x_range = [-1, 1]", "x_range = [-1, 1]]", "line 6: unbalanced ']'"),
        (SCALAR, "x_range = [-1, 1]", "x_range = [-1, 1", "line 6: list value must end with ']'"),
        (SCALAR, "[output]", "[ ]", "line 22: empty section name"),
        (SCALAR, "x_range = [-1, 1]", "x_range = [-1, 0, 1]", "line 6: spacetime.x_range must be a two-element list"),
        (SCALAR, "x_range = [-1, 1]", "x_range = [-1, 1]\ntopology = torus",
         "line 7: spacetime.topology must be 'line' or 'circle'"),
        (SCALAR, "alpha = 1", "alpha = sqrt(x)",
         "line 3: spacetime.alpha: non-finite result from sqrt at (t=-0.3, x=-1.0)"),
        (SCALAR, "[grid]", "[operator_Q]\npreset = klein_gordon_factorized\n\n[grid]",
         "line 13: operator_Q.preset disagrees with operator_P.preset"),
        (SCALAR, "preset = scalar_transport_pair", "preset = maxwell",
         "line 9: operator_P.preset: unknown preset 'maxwell'; known presets: "
         "dirac_massive, dirac_massless, scalar_transport_pair, klein_gordon_factorized"),
        (EXPLICIT, "rank = 1", "rank = 0", "line 19: bundle.rank must be a positive integer"),
        (EXPLICIT, "A_t = [[1]]\nA_x = [[1]]", "A_t = [[1], [1]]\nA_x = [[1]]",
         "line 9: operator_P.A_t must be a 1x1 matrix of expressions"),
        (EXPLICIT, "A_t = [[1]]\nA_x = [[1]]", "A_t = [[1, 0]]\nA_x = [[1]]",
         "line 9: operator_P.A_t must be a 1x1 matrix of expressions"),
        (SCALAR, "cfl = 0.4", "cfl = 1.5", "line 14: grid.cfl must be in (0, 1]"),
    ], ids=[
        "unbalanced-close", "unclosed-list", "empty-section", "range-length", "topology", "non-finite-alpha",
        "preset-disagrees", "unknown-preset", "rank", "matrix-rows", "matrix-row-length", "cfl",
    ])
    def test_error_messages(self, base, old, new, message):
        assert old in base
        with pytest.raises(ConfigError) as exc:
            load_config_text(base.replace(old, new, 1))
        assert str(exc.value) == message

    def test_explicit_scalar_pair_loads(self):
        assert load_config_text(EXPLICIT).preset is None

    def test_a_bare_format_is_a_list_of_one(self):
        assert load_config_text(SCALAR.replace("formats = [json]", "formats = json")).output_formats == ["json"]

    def test_internal_functions_are_not_in_the_grammar(self):
        with pytest.raises(ConfigError, match="unknown identifier 'step'"):
            load_config_text(BASE.replace("alpha = 1", "alpha = step(x)"))

    def test_nonpositive_lapse_rejected(self):
        with pytest.raises(ConfigError):
            load_config_text(BASE.replace("alpha = 1", "alpha = t"))

    def test_preset_and_explicit_mutually_exclusive(self):
        text = BASE.replace("mass = 1.0", "mass = 1.0\nA_t = [[1]]")
        with pytest.raises(ConfigError, match="mutually exclusive"):
            load_config_text(text)

    def test_rank_mismatch_detected(self):
        text = BASE + "\n[bundle]\nrank = 3\n"
        with pytest.raises(ConfigError, match="rank"):
            load_config_text(text)

    def test_component_count_must_match_rank(self):
        with pytest.raises(ConfigError, match="initial_data.components"):
            load_config_text(BASE.replace("components = [1, 0.5]", "components = [1]"))

    def test_t0_must_be_interior(self):
        text = BASE.replace("window_steepness = 2.5", "window_steepness = 2.5\nt0 = 0.3")
        with pytest.raises(ConfigError, match="t0"):
            load_config_text(text)

    def test_window_near_boundary_violates_causal_margin(self):
        text = BASE.replace("window_center = 0.0", "window_center = 0.9")
        with pytest.raises(ConfigError, match="causal margin"):
            load_config_text(text)

    def test_unknown_output_format(self):
        with pytest.raises(ConfigError, match="unknown format"):
            load_config_text(BASE.replace("formats = [json]", "formats = [xml]"))

    def test_explicit_operator_pair(self):
        text = """
[spacetime]
alpha = 1
beta = 1
t_range = [-0.3, 0.3]
x_range = [-1, 1]

[bundle]
rank = 1

[operator_P]
A_t = [[1]]
A_x = [[1]]
B = [[0]]

[operator_Q]
A_t = [[1]]
A_x = [[-1]]
B = [[0]]

[initial_data]
components = [1]
window_center = 0.0
window_halfwidth = 0.05
window_steepness = 2.5
"""
        cfg = load_config_text(text)
        assert cfg.preset is None
        p, q = cfg.operators()
        assert is_complementary_pair(p, q, cfg.metric()).passed

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "nope.cfg"))

    def test_echo_round_trips_scalars(self):
        cfg = load_config_text(BASE)
        echo = cfg.echo()
        assert echo["grid"] == {"nx": 128, "cfl": 0.4}
        assert echo["initial_data"]["window"]["halfwidth"] == 0.05
        assert echo["preset"] == "dirac_massive"

    def test_echo_reads_the_chart_and_the_rank_of_the_pair(self):
        echo = load_config_text(BASE).echo()
        assert echo["spacetime"] == {
            "alpha": "1", "beta": "1", "t_range": [-0.3, 0.3], "x_range": [-1.0, 1.0], "topology": "line",
        }
        # integer bounds in the file are echoed as the chart's floats
        assert all(isinstance(v, float) for v in echo["spacetime"]["x_range"])
        assert echo["bundle"] == {"rank": 2}
        text = BASE.replace("x_range = [-1, 1]", "x_range = [-1, 1]\ntopology = circle").replace(
            "preset = dirac_massive", "preset = scalar_transport_pair"
        ).replace("components = [1, 0.5]", "components = [1]")
        echo = load_config_text(text).echo()
        assert echo["spacetime"]["topology"] == "circle"
        assert echo["bundle"] == {"rank": 1}

    @pytest.mark.parametrize("preset", PRESETS)
    def test_echo_renders_the_resolved_operators(self, preset):
        text = BASE.replace("preset = dirac_massive", f"preset = {preset}")
        text = text.replace("alpha = 1\n", "alpha = 1+0.1*sin(t)\n").replace("beta = 1\n", "beta = 1+0.3*cos(2*x)\n")
        if preset == "scalar_transport_pair":
            text = text.replace("components = [1, 0.5]", "components = [1]")
        cfg = load_config_text(text)
        echo = cfg.echo()
        for key, op in zip(("operator_P", "operator_Q"), cfg.operators()):
            assert echo[key] == {"A_t": op.a_t.to_exprs(), "A_x": op.a_x.to_exprs(), "B": op.b.to_exprs()}

    def test_minkowski_dirac_echo(self):
        echo = load_config_text(BASE).echo()
        a_t, a_x = [[0.0, 1.0], [1.0, 0.0]], [[0.0, -1.0], [1.0, 0.0]]
        assert echo["operator_P"] == {"A_t": a_t, "A_x": a_x, "B": [[1j, 0.0], [0.0, 1j]]}
        assert echo["operator_Q"] == {"A_t": a_t, "A_x": a_x, "B": [[-1j, 0.0], [0.0, -1j]]}

    def test_echo_includes_the_dual_source(self):
        def with_dual(components):
            return BASE + f"""
[dual_source]
components = {components}
window_center = 0.2
window_halfwidth = 0.05
window_steepness = 2.5
t_window_center = 0.0
t_window_halfwidth = 0.03
t_window_steepness = 10.0
"""
        a = load_config_text(with_dual("[1, 0.5]")).echo()
        b = load_config_text(with_dual("[0.5, 1]")).echo()
        assert a != b
        assert a["dual_source"]["components"] == ["1", "0.5"]
        assert a["dual_source"]["x_window"]["center"] == 0.2
        assert load_config_text(BASE).echo()["dual_source"] is None


SOURCE = """
[source]
components = [1, 0.5*x]
window_center = 0.1
window_halfwidth = 0.05
window_steepness = 2.5
t_window_center = 0.02
t_window_halfwidth = 0.01
t_window_steepness = 50
"""


class TestSourceSection:
    def test_equals_the_test_section_of_its_spec(self):
        scn = load_config_text(BASE + SOURCE).scenario()
        for name in ("source", "dual_source"):
            spec = getattr(scn, name)
            want = make_test_section(scn.grid, spec.components, spec.x_window, spec.t_window)
            got = scn.source_section(name)
            assert got.grid is scn.grid
            assert got.components == want.components
            assert (got.x_support, got.t_support) == (want.x_support, want.t_support)

    def test_a_second_call_sweeps_no_cone_and_keeps_no_section(self, monkeypatch):
        from prehyp import geometry

        scn = load_config_text(BASE + SOURCE).scenario()
        sweeps = []
        real = geometry.causal_shadow
        monkeypatch.setattr(geometry, "causal_shadow", lambda *a, **k: sweeps.append(a[3]) or real(*a, **k))
        first = scn.source_section("source")
        assert sweeps == ["future", "past"]
        second = scn.source_section("source")
        assert len(sweeps) == 2
        # built per call, so no scenario keeps a sampled mesh
        assert second is not first

    def test_synthesized_dual_source_mirrors_the_source(self):
        scn = load_config_text(BASE + SOURCE).scenario()
        source, dual = scn.source, scn.dual_source
        assert dual.components == source.components
        assert dual.x_window == source.x_window._replace(center=-0.1)
        assert dual.t_window == source.t_window._replace(center=-0.02)
        section = scn.source_section("dual_source")
        assert section.x_support == window_support(-0.1, 0.05, 2.5)
        assert section.t_support == window_support(-0.02, 0.01, 50)
