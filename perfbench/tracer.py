"""Tracing from outside the program.

The tracer wraps the public functions of every prehyp module (and
``MatrixField.eval`` and ``DiagonalMetric.max_light_speed`` on their
classes) while a traced round runs, and removes the wrappers afterwards.
A wrapped name is replaced in every module that holds it, so a function
imported by name into another module is traced there too.

Each call becomes a span: name, start, end, parent span and thread.  Self
time is a span's duration minus the spans it directly encloses in the same
thread.  Spans stay in memory, per thread, and are written out at exit.
A few calls also feed work counters: the grid each evolution solve
receives gives its RK4 steps, and hashes of solution arrays and shadow
intervals count repeated work.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import threading
import time
from array import array
from typing import Callable, Dict, List, Tuple

import numpy as np

MODULES = (
    "expr", "geometry", "grids", "bundle_ops", "cauchy", "greens",
    "qft_dirac", "config", "cli",
)
# methods traced on their class: (module, class, method)
METHODS = (
    ("bundle_ops", "MatrixField", "eval"),
    ("geometry", "DiagonalMetric", "max_light_speed"),
)
# private functions that mark a layer boundary
PRIVATE = (
    ("cli", "_run_verify_all"),
    ("cli", "_ladder_error"),
)

EVOLUTION = ("cauchy.solve_second_order", "cauchy.solve_first_order_direct")
BATTERIES = tuple(
    f"cli.{n}" for n in (
        "run_check_pair", "run_solve", "run_direct_vs_reduced", "run_greens",
        "run_adjoint_check", "run_beta", "run_isometry", "run_convergence",
    )
)
# spans whose outermost instances (per thread) add up to a layer total
GROUPS = {
    **{name: "cli.battery" for name in BATTERIES},
    "cli._ladder_error": "cli.rung",
    "cli._run_verify_all": "cli.verify_all",
    "config.load_config": "config.load",
    "config.load_config_text": "config.load",
    "cli.write_report": "cli.report_write",
    "cli.write_timings": "cli.report_write",
    "cli.write_csv_dumps": "cli.report_write",
}

# spans kept per run; aggregates keep counting past the cap
SPAN_CAP = 2_000_000


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.shape).encode())
        h.update(a.view(np.uint8))
    return h.digest()


def _grid_arg(fn: Callable, args, kwargs):
    """The Grid1p1 an evolution solve runs on, read from its arguments."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    grid = bound.arguments.get("grid")
    if grid is None:  # solve_first_order_direct falls back to the data's grid
        grid = bound.arguments["phi0"].grid
    return grid


class _ThreadState:
    def __init__(self, ident: int):
        self.ident = ident
        self.stack: List[list] = []
        self.stats: Dict[str, list] = {}  # name -> [calls, self_s]
        self.group_depth: Dict[str, int] = {}
        self.group_s: Dict[str, float] = {}
        self.counters: Dict[str, int] = {}
        self.digests: Dict[str, List[bytes]] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")


class Tracer:
    """Installs wrappers around prehyp's public functions for one round at
    a time and aggregates what they record."""

    def __init__(self, package):
        self.package = package
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: List[_ThreadState] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._span_count = 0
        self.spans_dropped = 0
        self._targets = self._find_targets()

    # -- discovery and patching ---------------------------------------------

    def _find_targets(self):
        """The traced functions as (span name, function) and the traced
        methods as (span name, class, attribute, function)."""
        mods = {m: importlib.import_module(f"{self.package}.{m}") for m in MODULES}
        targets = []
        for m, mod in mods.items():
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                targets.append((f"{m}.{attr}", obj))
        for m, attr in PRIVATE:
            targets.append((f"{m}.{attr}", getattr(mods[m], attr)))
        methods = []
        for m, cls, meth in METHODS:
            klass = getattr(mods[m], cls)
            methods.append((f"{m}.{cls}.{meth}", klass, meth, vars(klass)[meth]))
        return targets, methods

    def _all_modules(self):
        return [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(self.package + "."))
        ]

    def install(self) -> None:
        functions, methods = self._targets
        # keyed by id: the functions stay alive in self._targets
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in functions}
        for mod in self._all_modules():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        for name, klass, meth, fn in methods:
            self._patches.append((klass, meth, fn))
            setattr(klass, meth, self._wrap(name, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            self._local.state = st
            with self._lock:
                self._threads.append(st)
        return st

    # -- the wrapper ----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self._id(name)
        group = GROUPS.get(name)
        evolution = name in EVOLUTION
        shadow = name == "geometry.causal_shadow"
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            parent = stack[-1] if stack else None
            outer = False
            if group is not None:
                depth = st.group_depth.get(group, 0)
                # a battery run as one rung of a convergence ladder is part of
                # that ladder, not a battery of its own
                outer = depth == 0 and not (group == "cli.battery" and st.group_depth.get("cli.rung", 0))
                st.group_depth[group] = depth + 1
            # frame: [span index or -1, child time]
            frame = [-1, 0.0]
            if tracer._span_count < SPAN_CAP:
                tracer._span_count += 1
                frame[0] = len(st.span_name)
                st.span_name.append(name_id)
                st.span_parent.append(parent[0] if parent else -1)
                st.span_start.append(0.0)
                st.span_end.append(0.0)
            else:
                tracer.spans_dropped += 1
            stack.append(frame)
            start = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                if group is not None:
                    st.group_depth[group] -= 1
            span = end - start
            s = st.stats.get(name)
            if s is None:
                s = st.stats[name] = [0, 0.0]
            s[0] += 1
            s[1] += span - frame[1]
            if outer:
                st.group_s[group] = st.group_s.get(group, 0.0) + span
            if frame[0] >= 0:
                st.span_start[frame[0]] = start
                st.span_end[frame[0]] = end
            hook = 0.0
            if evolution or shadow:
                h0 = perf()
                if evolution:
                    grid = _grid_arg(fn, args, kwargs)
                    c = st.counters
                    c["rk4_steps"] = c.get("rk4_steps", 0) + grid.nt - 1
                    c["rk4_node_steps"] = c.get("rk4_node_steps", 0) + (grid.nt - 1) * grid.nx
                    st.digests.setdefault("solve", []).append(_digest(out.values))
                else:
                    flat = [iv for union in out.intervals for lo_hi in union for iv in lo_hi]
                    st.digests.setdefault("shadow", []).append(
                        _digest(out.times, np.asarray(flat, dtype=float))
                    )
                hook = perf() - h0
            if parent is not None:
                # the hook is tracer work: keep it out of the caller's self time
                parent[1] += span + hook
            return out

        return traced

    # -- aggregation ------------------------------------------------------------

    def reset_round(self) -> None:
        """Forget the aggregates of the last round; spans are kept."""
        with self._lock:
            for st in self._threads:
                st.stats.clear()
                st.group_s.clear()
                st.counters.clear()
                st.digests.clear()

    def totals(self):
        stats: Dict[str, list] = {}
        groups: Dict[str, float] = {}
        counters: Dict[str, int] = {}
        digests: Dict[str, List[bytes]] = {}
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for name, (calls, self_s) in st.stats.items():
                agg = stats.setdefault(name, [0, 0.0])
                agg[0] += calls
                agg[1] += self_s
            for g, v in st.group_s.items():
                groups[g] = groups.get(g, 0.0) + v
            for k, v in st.counters.items():
                counters[k] = counters.get(k, 0) + v
            for k, v in st.digests.items():
                digests.setdefault(k, []).extend(v)
        return stats, groups, counters, digests

    def dump(self, path: str) -> int:
        """Write every recorded span to an .npz file; returns the count."""
        with self._lock:
            threads = list(self._threads)
        cols = {"name": [], "parent": [], "start": [], "end": [], "thread": []}
        for st in threads:
            n = len(st.span_name)
            cols["name"].append(np.frombuffer(st.span_name, dtype=np.int32))
            cols["parent"].append(np.frombuffer(st.span_parent, dtype=np.int32))
            cols["start"].append(np.frombuffer(st.span_start, dtype=np.float64))
            cols["end"].append(np.frombuffer(st.span_end, dtype=np.float64))
            cols["thread"].append(np.full(n, st.ident, dtype=np.int64))
        arrays = {k: (np.concatenate(v) if v else np.empty(0)) for k, v in cols.items()}
        np.savez_compressed(path, names=np.array(self.names), **arrays)
        return int(arrays["name"].size)


def layer_metrics(tracer: Tracer, round_wall_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced round, from the tracer's totals."""
    stats, groups, counters, digests = tracer.totals()

    def calls(*names):
        return sum(stats.get(n, (0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(stats.get(n, (0, 0.0))[1] for n in names)

    def dup_share(key):
        d = digests.get(key, [])
        return (len(d) - len(set(d))) / len(d) if d else 0.0

    steps = counters.get("rk4_steps", 0)
    solve_self = self_s(*EVOLUTION)
    busy = groups.get("cli.battery", 0.0)
    verify_all = groups.get("cli.verify_all", 0.0)
    pair_check = (
        "bundle_ops.is_complementary_pair", "bundle_ops.is_normally_hyperbolic",
        "bundle_ops.principal_symbol_1", "bundle_ops.principal_symbol_2",
        "bundle_ops.symbol_invertibility",
    )
    return {
        "expr.evaluate.calls": calls("expr.evaluate"),
        "expr.evaluate.self_s": self_s("expr.evaluate"),
        "bundle_ops.field_eval.calls": calls("bundle_ops.MatrixField.eval"),
        "bundle_ops.field_eval.self_s": self_s("bundle_ops.MatrixField.eval"),
        "bundle_ops.compose.calls": calls("bundle_ops.compose"),
        "bundle_ops.formal_adjoint.calls": calls("bundle_ops.formal_adjoint"),
        "bundle_ops.apply_operator.calls": calls("bundle_ops.apply_operator"),
        "bundle_ops.apply_operator.self_s": self_s("bundle_ops.apply_operator"),
        "bundle_ops.pair_check.self_s": self_s(*pair_check),
        "bundle_ops.pairing.self_s": self_s("bundle_ops.pairing"),
        "grids.stencil.calls": calls("grids.d_x", "grids.d_xx"),
        "grids.stencil.self_s": self_s("grids.d_x", "grids.d_xx"),
        "grids.check_causal_margin.calls": calls("grids.check_causal_margin"),
        "grids.check_causal_margin.self_s": self_s("grids.check_causal_margin"),
        "cauchy.solves": calls(*EVOLUTION),
        "cauchy.rk4_steps": steps,
        "cauchy.rk4_node_steps": counters.get("rk4_node_steps", 0),
        "cauchy.solve.self_s": solve_self,
        "cauchy.rk4_step.self_us": solve_self / steps * 1e6 if steps else 0.0,
        "cauchy.support_leak.self_s": self_s("cauchy.support_leak"),
        "cauchy.solve.dup_share": dup_share("solve"),
        "geometry.causal_shadow.calls": calls("geometry.causal_shadow"),
        "geometry.causal_shadow.self_s": self_s("geometry.causal_shadow"),
        "geometry.causal_shadow.dup_share": dup_share("shadow"),
        "geometry.max_light_speed.calls": calls("geometry.DiagonalMetric.max_light_speed"),
        "geometry.max_light_speed.self_s": self_s("geometry.DiagonalMetric.max_light_speed"),
        "greens.driven_solves": calls("greens.solve_driven"),
        "greens.make_test_section.self_s": self_s("greens.make_test_section"),
        "greens.apply_analytic.self_s": self_s("greens.apply_analytic"),
        "qft_dirac.beta_sigma.calls": calls("qft_dirac.beta_sigma"),
        "qft_dirac.beta_sigma.self_s": self_s("qft_dirac.beta_sigma"),
        "config.load.s": groups.get("config.load", 0.0),
        "cli.battery.busy_s": busy,
        "cli.battery.overlap": busy / (verify_all or round_wall_s),
        "cli.report_write.s": groups.get("cli.report_write", 0.0),
    }
