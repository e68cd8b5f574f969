"""Scenario configuration: a small sectioned key = value text format.

Grammar:

    [section]
    key = value        # trailing comments allowed

Values are numbers, bare words, or bracketed comma lists; lists nest, so
matrices are written [[a, b], [c, d]].  Entries that are not numbers are
kept as strings; the loader parses expressions where it reads them.

A scenario names a spacetime, a bundle rank, an operator pair (either a
preset or explicit coefficient matrices), a grid, windowed initial data
and optionally a windowed source for driven (Green's operator) runs.  The
loader resolves the metric and the operator pair once, into the objects
the solvers use.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from . import expr as _expr
from .bundle_ops import FirstOrderOperator, MatrixField
from .geometry import Chart1p1, ChartDomainError, DiagonalMetric, MetricPositivityError
from .cauchy import solve_cauchy
from .greens import check_source_cones
from .grids import CauchyData, Grid1p1, GridSection, MarginError, build_grid, make_cauchy_data, window_support
from .grids import check_causal_margin, check_temporal_margin
from .qft_dirac import DiracModel, build_dirac_pair

DIRAC_PRESETS = ("dirac_massive", "dirac_massless")
PRESETS = (*DIRAC_PRESETS, "scalar_transport_pair", "klein_gordon_factorized")


class ConfigError(ValueError):
    """Configuration parse or validation failure."""


# ---------------------------------------------------------------------------
# low-level parsing

def _split_top_level(body: str, line_no: int) -> List[str]:
    parts = []
    depth = 0
    cur = []
    for ch in body:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ConfigError(f"line {line_no}: unbalanced ']'")
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    last = "".join(cur).strip()
    if last or parts:
        parts.append(last)
    if depth != 0:
        raise ConfigError(f"line {line_no}: unbalanced '['")
    return parts


def _parse_value(raw: str, line_no: int):
    raw = raw.strip()
    if raw.startswith("["):
        if not raw.endswith("]"):
            raise ConfigError(f"line {line_no}: list value must end with ']'")
        return [_parse_value(p, line_no) for p in _split_top_level(raw[1:-1], line_no)]
    try:
        v = float(raw)
        return int(v) if v.is_integer() and "." not in raw and "e" not in raw.lower() else v
    except ValueError:
        return raw


class _Section(dict):
    """One [section]: {key: value}, with the line each key is on."""

    def __init__(self):
        super().__init__()
        self.lines: Dict[str, int] = {}


def parse_config_text(text: str) -> Dict[str, Dict[str, object]]:
    """Parse the sectioned text into {section: {key: value}}; each section
    also keeps the line number of each key."""
    sections: Dict[str, Dict[str, object]] = {}
    current: Optional[str] = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]") and "=" not in stripped:
            current = stripped[1:-1].strip()
            if not current:
                raise ConfigError(f"line {line_no}: empty section name")
            sections.setdefault(current, _Section())
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'key = value'")
        if current is None:
            raise ConfigError(f"line {line_no}: key outside any [section]")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {line_no}: empty key")
        sections[current][key] = _parse_value(raw, line_no)
        sections[current].lines[key] = line_no
    return sections


# ---------------------------------------------------------------------------
# scenario structure

@dataclass
class WindowSpec:
    center: float
    halfwidth: float
    steepness: float


@dataclass
class SourceSpec:
    components: List[str]
    x_window: WindowSpec
    t_window: WindowSpec


@dataclass(frozen=True)
class ScenarioConfig:
    alpha: str
    beta: str
    preset: Optional[str]
    mass: float
    spacetime: DiagonalMetric
    pair: Tuple[FirstOrderOperator, FirstOrderOperator]
    nx: int
    cfl: float
    t0: float
    initial_components: List[str]
    window: WindowSpec
    source: Optional[SourceSpec]
    dual_source: Optional[SourceSpec]
    output_directory: str
    output_formats: List[str]
    # the parsed file, so that errors found after load can name a key's line
    sections: Dict[str, Dict[str, object]] = field(default_factory=dict, repr=False, compare=False)
    _scenarios: Dict[int, "Scenario"] = field(default_factory=dict, init=False, repr=False, compare=False)

    # -- the model objects resolved at load ---------------------------------

    def metric(self) -> DiagonalMetric:
        return self.spacetime

    def grid(self, metric: Optional[DiagonalMetric] = None, nx: Optional[int] = None) -> Grid1p1:
        metric = metric or self.spacetime
        return build_grid(metric.chart, metric, nx or self.nx, self.cfl)

    def operators(self) -> Tuple[FirstOrderOperator, FirstOrderOperator]:
        return self.pair

    def initial_data(self, grid: Grid1p1, components: Optional[List[str]] = None) -> CauchyData:
        """The configured window times the given components (the
        configured ones by default)."""
        return make_cauchy_data(
            grid, components or self.initial_components, self.t0,
            self.window.center, self.window.halfwidth, self.window.steepness,
        )

    def scenario(self, nx: Optional[int] = None) -> "Scenario":
        """The scenario at nx (the configured resolution by default),
        built and validated on the first request and kept after that."""
        nx = nx or self.nx
        if nx not in self._scenarios:
            self._scenarios[nx] = Scenario(self, nx)
        return self._scenarios[nx]

    def echo(self) -> Dict[str, object]:
        """The resolved configuration as plain JSON-compatible data."""
        chart = self.spacetime.chart
        return {
            "spacetime": {
                "alpha": self.alpha, "beta": self.beta,
                "t_range": [chart.t_min, chart.t_max], "x_range": [chart.x_min, chart.x_max],
                "topology": chart.topology,
            },
            "bundle": {"rank": self.pair[0].k},
            "operator_P": _echo_operator(self.pair[0]),
            "operator_Q": _echo_operator(self.pair[1]),
            "preset": self.preset,
            "mass": self.mass,
            "grid": {"nx": self.nx, "cfl": self.cfl},
            "initial_data": {
                "components": self.initial_components,
                "t0": self.t0,
                "window": {
                    "center": self.window.center,
                    "halfwidth": self.window.halfwidth,
                    "steepness": self.window.steepness,
                },
            },
            "source": _echo_source(self.source),
            "dual_source": _echo_source(self.dual_source),
            "output": {"directory": self.output_directory, "formats": self.output_formats},
        }


def _echo_operator(op: FirstOrderOperator) -> Dict[str, object]:
    """The resolved coefficients: numbers where constant, else folded
    expression source; B is the whole order-0 part, Dirac spin term included."""
    return {"A_t": op.a_t.to_exprs(), "A_x": op.a_x.to_exprs(), "B": op.b.to_exprs()}


def _echo_source(spec: Optional[SourceSpec]) -> Optional[Dict[str, object]]:
    if spec is None:
        return None
    return {"components": spec.components, "x_window": vars(spec.x_window), "t_window": vars(spec.t_window)}


# ---------------------------------------------------------------------------
# a config at one resolution

def _default_source(cfg: ScenarioConfig) -> SourceSpec:
    """Synthesize a source for driven runs when the config has no [source]
    block: the initial-data window in x, a narrow window around t0 in t."""
    chart = cfg.spacetime.chart
    t_half = 0.05 * (chart.t_max - chart.t_min)
    return SourceSpec(
        list(cfg.initial_components),
        WindowSpec(cfg.window.center, cfg.window.halfwidth, cfg.window.steepness),
        WindowSpec(cfg.t0, t_half, 1.0 / t_half),
    )


def _mirrored(spec: SourceSpec) -> SourceSpec:
    return SourceSpec(
        list(spec.components),
        WindowSpec(-spec.x_window.center, spec.x_window.halfwidth, spec.x_window.steepness),
        WindowSpec(-spec.t_window.center, spec.t_window.halfwidth, spec.t_window.steepness),
    )


class Scenario:
    """A config resolved at nx: the metric, the grid, the operator pair,
    the initial data and, computed on first use, their Cauchy solve,
    shared by every battery that judges it.  Building one validates the
    configured windows on its grid; the initial window's margin is checked
    on the solve's own shadow, which the metric keeps."""

    def __init__(self, cfg: ScenarioConfig, nx: int):
        # no reference back to cfg, which keeps its scenarios: without a
        # cycle, a dropped config frees its solves at once
        self.metric = cfg.metric()
        self.grid = cfg.grid(self.metric, nx)
        self.p, self.q = cfg.operators()
        self.data = cfg.initial_data(self.grid)
        if self.metric.chart.topology == "line":
            try:  # a window off the chart fails before its sweep
                check_causal_margin(self.metric, self.grid, self.data.support, self.data.t0)
            except (MarginError, ChartDomainError):
                at = _line(cfg.sections, "initial_data", "window_center")
                raise ConfigError(f"{at}initial_data.window: causal margin violated at nx = {nx}") from None
        self._configured = {"source": cfg.source, "dual_source": cfg.dual_source}
        self._components_at = {
            name: _line(cfg.sections, name, "components") + f"{name}.components" for name in self._configured
        }
        self._window_at = {
            name: _line(cfg.sections, name, "window_center") + f"{name}.window" for name in self._configured
        }
        # greens' retarded S+ phi of [source] at the configured nx, which
        # adjoint-check takes as its S+ f and clears
        self.s_plus_source: Optional[GridSection] = None
        self._default_source = _default_source(cfg)
        for name, spec in self._configured.items():
            if spec is not None:
                self._check_section(spec, *(
                    _line(cfg.sections, name, f"{w}_center") + f"{name}.{w}" for w in ("window", "t_window")
                ))

    @cached_property
    def solution(self):
        """(phi, SolveReport) of the configured Cauchy problem."""
        return solve_cauchy(self.p, self.q, self.metric, self.data, self.grid)

    @cached_property
    def source(self) -> SourceSpec:
        """[source], or one synthesized from the initial window around t0."""
        return self._configured["source"] or self._synthesized("source", self._default_source)

    @cached_property
    def dual_source(self) -> SourceSpec:
        """[dual_source], or the source mirrored through t = 0 and x = 0."""
        return self._configured["dual_source"] or self._synthesized("dual_source", _mirrored(self.source))

    def check_pairing_sections(self) -> None:
        """The source and the dual source, configured or synthesized, are
        valid on this grid and each has a component that does not fold to
        0: adjoint-check pairs them, and the pairing of a zero section is
        0 whatever the Green's operators, so its control cannot pass."""
        sections = {"source": self.source, "dual_source": self.dual_source}
        for name, spec in sections.items():
            if all(_expr.simplify(_expr.parse(c)) == _expr.ZERO for c in spec.components):
                error = "every component is 0, so adjoint-check has nothing to pair"
                if self._configured[name] is None:
                    raise ConfigError(f"synthesized {name}.components: {error}; add a [{name}] section")
                raise ConfigError(f"{self._components_at[name]}: {error}")

    def check_source_cones(self, names: Tuple[str, ...] = ("source", "dual_source")) -> None:
        """The J+ and J- of each named section, the source and the dual
        source by default, configured or synthesized, swept as the greens
        battery sweeps them for its leak, stay inside the chart on this
        grid: greens needs the source's, adjoint-check both sections'.
        Checked before the driven solves rather than at load, where the
        sweeps would be extra work for the batteries that never use them."""
        for name in names:
            spec = getattr(self, name)
            try:
                check_source_cones(
                    self.metric, self.grid,
                    window_support(*astuple(spec.x_window)), window_support(*astuple(spec.t_window)),
                )
            except MarginError:
                error = (
                    f"{self._window_at[name]}: the {name}'s causal future or past leaves the chart"
                    f" at nx = {self.grid.nx}"
                )
                if self._configured[name] is None:
                    error = f"synthesized {error}; add a [{name}] section"
                raise ConfigError(error) from None

    def _synthesized(self, name: str, spec: SourceSpec) -> SourceSpec:
        try:
            self._check_section(spec, f"{name}.window", f"{name}.t_window")
        except ConfigError as e:
            raise ConfigError(f"synthesized {e}; add a [{name}] section") from None
        return spec

    def _check_section(self, spec: SourceSpec, x_at: str, t_at: str) -> None:
        """A source section's x box inside a line chart, and its time
        support BOUNDARY_MARGIN_NODES levels clear of the grid's time
        edges, as the driven solves need them."""
        chart, x_box = self.metric.chart, window_support(*astuple(spec.x_window))
        if chart.topology == "line" and not chart.x_min <= x_box[0] < x_box[1] <= chart.x_max:
            raise ConfigError(f"{x_at}: x support {x_box} leaves the chart")
        try:
            check_temporal_margin(self.grid, window_support(*astuple(spec.t_window)))
        except MarginError as e:
            raise ConfigError(f"{t_at}: {e} at nx = {self.grid.nx}") from None


# ---------------------------------------------------------------------------
# preset resolution

def resolve_preset(name: str, mass: float, metric: DiagonalMetric) -> Tuple[FirstOrderOperator, FirstOrderOperator]:
    """The operator pair a preset names, on the given metric.  Principal
    parts use the orthonormal coframe, so the symbol product is
    g(xi, xi) Id on any diagonal metric."""
    if name in DIRAC_PRESETS:
        return build_dirac_pair(DiracModel(mass=float(mass)), metric)
    ia, ib = (_expr.simplify(_expr.Bin("/", _expr.ONE, s)) for s in (metric.alpha_ast, metric.beta_ast))
    if name == "scalar_transport_pair":
        a_t, a_x, b = MatrixField([[ia]]), MatrixField([[ib]]), MatrixField.zero(1)
    elif name == "klein_gordon_factorized":
        # two transport modes with off-diagonal mass coupling; the product
        # is the Klein-Gordon operator box + m^2 on each component
        zero = _expr.ZERO
        a_t = MatrixField([[ia, zero], [zero, ia]])
        a_x = MatrixField([[ib, zero], [zero, _expr.fold(_expr.Neg(ib))]])
        b = MatrixField.from_constant([[0.0, mass], [-mass, 0.0]])
    else:
        raise ConfigError(f"unknown preset {name!r}; known presets: {', '.join(PRESETS)}")
    # Q reverses the spatial transport and the coupling
    return FirstOrderOperator(a_t.k, a_t, a_x, b), FirstOrderOperator(a_t.k, a_t, -a_x, -b)


# ---------------------------------------------------------------------------
# loading and validation

def _require(sections, section: str, key: str):
    if section not in sections or key not in sections[section]:
        raise ConfigError(f"{section}.{key} required")
    return sections[section][key]


def _get(sections, section: str, key: str, default=None):
    return sections.get(section, {}).get(key, default)


def _line(sections, section: str, key: str) -> str:
    """'line N: ' for a key in the file, else ''."""
    line = sections[section].lines.get(key) if section in sections else None
    return "" if line is None else f"line {line}: "


def _at(sections, section: str, key: str) -> str:
    """How an error names a key: 'line N: section.key', without the line
    when the key is not in the file."""
    return f"{_line(sections, section, key)}{section}.{key}"


def _number(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number") from None


def _as_pair(value, name: str) -> Tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{name} must be a two-element list")
    lo, hi = _number(value[0], name), _number(value[1], name)
    if not lo < hi:
        raise ConfigError(f"{name} must be increasing")
    return (lo, hi)


def _parse_expr(src, name: str) -> _expr.ExprAst:
    try:
        return _expr.parse(str(src))
    except _expr.ExprSyntaxError as e:
        raise ConfigError(f"{name}: {e}")


def _check_expr(src, name: str) -> str:
    _parse_expr(src, name)
    return str(src)


def _coeff_matrix(value, rank: int, name: str) -> MatrixField:
    if not isinstance(value, list) or len(value) != rank:
        raise ConfigError(f"{name} must be a {rank}x{rank} matrix of expressions")
    out = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != rank:
            raise ConfigError(f"{name} must be a {rank}x{rank} matrix of expressions")
        out.append([_parse_expr(e, f"{name}[{i}][{j}]") for j, e in enumerate(row)])
    return MatrixField.from_exprs(out)


def _window(sections, section: str, prefix: str = "window") -> WindowSpec:
    keys = [f"{prefix}_{name}" for name in ("center", "halfwidth", "steepness")]
    center, halfwidth, steepness = (
        _number(_require(sections, section, k), _at(sections, section, k)) for k in keys
    )
    for key, value in zip(keys[1:], (halfwidth, steepness)):
        if value <= 0:
            raise ConfigError(f"{_at(sections, section, key)} must be positive")
    return WindowSpec(center, halfwidth, steepness)


def _components(sections, section: str, rank: int) -> List[str]:
    comps = _require(sections, section, "components")
    name = _at(sections, section, "components")
    if not isinstance(comps, list) or len(comps) != rank:
        raise ConfigError(f"{name} must list {rank} expressions")
    return [_check_expr(c, f"{name}[{i}]") for i, c in enumerate(comps)]


def _source_spec(sections, section: str, rank: int) -> Optional[SourceSpec]:
    if section not in sections:
        return None
    comps = _components(sections, section, rank)
    return SourceSpec(comps, _window(sections, section, "window"), _window(sections, section, "t_window"))


def load_config_text(text: str) -> ScenarioConfig:
    sections = parse_config_text(text)

    def at(section: str, key: str) -> str:
        return _at(sections, section, key)

    alpha, beta = (_check_expr(_require(sections, "spacetime", k), at("spacetime", k)) for k in ("alpha", "beta"))
    t_range, x_range = (
        _as_pair(_require(sections, "spacetime", k), at("spacetime", k)) for k in ("t_range", "x_range")
    )
    topology = str(_get(sections, "spacetime", "topology", "line"))
    if topology not in ("line", "circle"):
        raise ConfigError(f"{at('spacetime', 'topology')} must be 'line' or 'circle'")
    chart = Chart1p1(t_range[0], t_range[1], x_range[0], x_range[1], topology)
    for key, lapse, scale in (("alpha", alpha, "1"), ("beta", "1", beta)):
        try:
            DiagonalMetric(lapse, scale, chart)
        except MetricPositivityError:
            raise ConfigError(f"{at('spacetime', key)} must be strictly positive on the chart") from None
        except _expr.ExprEvalError as e:
            raise ConfigError(f"{at('spacetime', key)}: {e}") from None
    metric = DiagonalMetric(alpha, beta, chart)  # alpha and beta were checked on its lattice above

    preset_sec = "operator_P" if _get(sections, "operator_P", "preset") else "operator_Q"
    preset = _get(sections, preset_sec, "preset")
    pq = _get(sections, "operator_Q", "preset")
    if preset is not None and pq is not None and preset != pq:
        raise ConfigError(f"{at('operator_Q', 'preset')} disagrees with operator_P.preset")
    mass_sec = "operator_P" if _get(sections, "operator_P", "mass") is not None else "operator_Q"
    mass = _number(_get(sections, mass_sec, "mass", 1.0), at(mass_sec, "mass"))

    explicit_keys = [
        (sec, k) for sec in ("operator_P", "operator_Q")
        for k in ("A_t", "A_x", "B") if _get(sections, sec, k) is not None
    ]
    if preset is not None and explicit_keys:
        raise ConfigError(f"{at(*explicit_keys[0])}: presets and explicit coefficients are mutually exclusive")

    if preset is not None:
        if preset not in PRESETS:
            known = ", ".join(PRESETS)
            raise ConfigError(f"{at(preset_sec, 'preset')}: unknown preset {preset!r}; known presets: {known}")
        if preset == "dirac_massless":
            mass = 0.0
        pair = resolve_preset(preset, mass, metric)
        rank = pair[0].k
    else:
        rank = _require(sections, "bundle", "rank")
        if not isinstance(rank, int) or rank < 1:
            raise ConfigError(f"{at('bundle', 'rank')} must be a positive integer")
        pair = tuple(
            FirstOrderOperator(rank, *(
                _coeff_matrix(_require(sections, sec, k), rank, at(sec, k)) for k in ("A_t", "A_x", "B")
            ))
            for sec in ("operator_P", "operator_Q")
        )
    declared_rank = _get(sections, "bundle", "rank")
    if declared_rank is not None and declared_rank != rank:
        raise ConfigError(f"{at('bundle', 'rank')} = {declared_rank} does not match operator rank {rank}")

    nx = _get(sections, "grid", "nx", 512)
    if not isinstance(nx, int) or nx < 8:
        raise ConfigError(f"{at('grid', 'nx')} must be an integer >= 8")
    cfl = _number(_get(sections, "grid", "cfl", 0.4), at("grid", "cfl"))
    if not 0 < cfl <= 1:
        raise ConfigError(f"{at('grid', 'cfl')} must be in (0, 1]")

    comps = _components(sections, "initial_data", rank)
    window = _window(sections, "initial_data")
    t0 = _number(_get(sections, "initial_data", "t0", 0.5 * (t_range[0] + t_range[1])), at("initial_data", "t0"))
    if not t_range[0] < t0 < t_range[1]:
        raise ConfigError(f"{at('initial_data', 't0')} must lie strictly inside t_range")

    source = _source_spec(sections, "source", rank)
    dual_source = _source_spec(sections, "dual_source", rank)

    out_dir = str(_get(sections, "output", "directory", "out"))
    formats = _get(sections, "output", "formats", ["json"])
    if isinstance(formats, str):
        formats = [formats]
    for f in formats:
        if f not in ("json", "csv"):
            raise ConfigError(f"{at('output', 'formats')}: unknown format {f!r}")

    cfg = ScenarioConfig(
        alpha, beta, preset, mass,
        metric, pair, nx, cfl, t0, comps, window, source, dual_source,
        out_dir, formats, sections,
    )
    cfg.scenario()  # validates the configured windows at nx
    return cfg


def load_config(path: str) -> ScenarioConfig:
    """Read and validate a scenario file; raises ConfigError on any
    parse or validation failure."""
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    return load_config_text(text)
