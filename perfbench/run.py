#!/usr/bin/env python3
"""Benchmark for prehyp: time to verdict on three verification workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
./src.  One client runs one verification at a time, back to back, for
--seconds (a closed loop).  Every round's outcome is checked with
prehyp's own gates.

--trace 0 prints the end-to-end metrics: wall_ref (median over rounds of
a round's wall time divided by the CPU time of a fixed reference kernel
sampled all through the round, see hostspeed.py), setup_s (median over
fresh processes) and peak_rss_mib.  The raw wall_s and cpu_s, cpu_ref and
the reference kernel's ref_s are printed alongside.
--trace 1 alternates untraced and traced rounds and prints the per-layer
metrics of the traced ones, which wrap prehyp's public functions from
outside the program.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 10
# how often the reference kernel samples the host speed during a round
SAMPLE_PERIOD_S = 0.2
PROBE_TIMEOUT_S = 60
WORKLOAD_NAMES = ("flat_ladder", "curved_dirac", "verify_all_flat")


class ProgramMissing(Exception):
    pass


def import_program():
    """Import prehyp from ./src of this checkout and nowhere else."""
    init = os.path.join(SRC, "prehyp", "__init__.py")
    if not os.path.isfile(init):
        raise ProgramMissing(f"no prehyp sources at {init}")
    sys.path.insert(0, SRC)
    import prehyp

    if os.path.realpath(prehyp.__file__) != os.path.realpath(init):
        raise ProgramMissing(f"prehyp imported from {prehyp.__file__}, not {init}")
    return prehyp


# ---------------------------------------------------------------------------
# run context

def steal_ticks():
    """Host steal ticks summed over CPUs, from /proc/stat (read only)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except OSError:
        return None


def commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "prehyp")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# set-up time: import and build up to the first solve, in a fresh process

def probe_setup(workload: str, seed: int) -> None:
    start = time.perf_counter()
    pkg = import_program()
    imported = time.perf_counter() - start
    from workloads import WORKLOADS

    w = WORKLOADS[workload](seed, os.path.join(OUT, f"probe-{os.getpid()}"))
    start = time.perf_counter()
    w.setup(pkg)
    built = time.perf_counter() - start
    getattr(w, "close", lambda: None)()
    print(json.dumps({"setup_s": imported + built}))


def setup_samples(workload: str, seed: int, probes: int):
    samples = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# the closed loop

def cpu_now() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def measure(workload, pkg, checks, seconds: float, tracer=None):
    """Run the workload's warm-up rounds, then timed rounds back to back
    for `seconds`.  Once the workload's minimum number of rounds is done,
    a round is started only when a typical round still fits before the
    deadline.  With a tracer, rounds alternate untraced and traced,
    starting untraced.  Warm-up rounds are checked but not timed.

    While an untraced round runs, the reference kernel samples the host
    speed every SAMPLE_PERIOD_S; the samples' time is taken out of the
    round's wall and CPU time, and the round's time in reference units is
    its time divided by the mean CPU time of the kernel during it."""
    import hostspeed
    from tracer import layer_metrics

    for i in range(workload.warmup_rounds):
        try:
            workload.round(pkg, checks)
        except Exception as e:  # an exception is a failed check
            checks.expect(f"warm-up round {i}", False, f"{type(e).__name__}: {e}")
    plain = {"wall": [], "cpu": [], "ref_s": [], "wall_ref": [], "cpu_ref": []}
    traced = {"wall": [], "layers": []}
    start = time.perf_counter()
    deadline = start + seconds
    n = 0
    while True:
        trace_this = tracer is not None and n % 2 == 1
        sampler = hostspeed.Sampler(SAMPLE_PERIOD_S)
        if trace_this:
            tracer.reset_round()
            tracer.install()
        t0, c0 = time.perf_counter(), cpu_now()
        try:
            # traced rounds are not sampled: the kernel would land in spans
            with contextlib.nullcontext() if trace_this else sampler:
                workload.round(pkg, checks)
            ok = True
        except Exception as e:  # an exception is a failed check
            checks.expect(f"round {n}", False, f"{type(e).__name__}: {e}")
            ok = False
        finally:
            if trace_this:
                tracer.uninstall()
        wall = time.perf_counter() - t0 - sampler.wall
        cpu = cpu_now() - c0 - sampler.cpu
        if ok and trace_this:
            traced["wall"].append(wall)
            traced["layers"].append(layer_metrics(tracer, wall))
        elif ok:
            # a round shorter than the sampling period gets its sample after
            ref = statistics.fmean(sampler.times or hostspeed.sample())
            plain["wall"].append(wall)
            plain["cpu"].append(cpu)
            plain["ref_s"].append(ref)
            plain["wall_ref"].append(wall / ref)
            plain["cpu_ref"].append(cpu / ref)
        n += 1
        walls = plain["wall"] + traced["wall"]
        done = (
            len(walls) >= workload.min_rounds
            and plain["wall"] and (tracer is None or traced["wall"])
        )
        typical = statistics.median(walls) if walls else 0.0
        if done and time.perf_counter() + typical > deadline:
            break
        # rounds that keep failing end the run once the time is up
        if time.perf_counter() > deadline and n >= 2 * workload.min_rounds + 2:
            break
    return plain, traced


def summary(values):
    if not values:
        return None
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "p25": q[0], "p75": q[2], "n": len(values)}


def layer_summary(rounds, checks):
    """Counts must repeat exactly across traced rounds; times are medians."""
    out = {}
    for name in rounds[0]:
        vals = [r[name] for r in rounds]
        if name.endswith((".calls", ".solves", "_steps", "driven_solves", "dup_share")):
            checks.expect(f"{name} repeats", len(set(vals)) == 1, f"{vals}")
            out[name] = vals[0]
        else:
            out[name] = statistics.median(vals)
    return out


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    sys.path.insert(0, HERE)
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    try:
        pkg = import_program()
    except (ProgramMissing, ImportError) as e:
        print(f"benchmark: cannot import the program: {e}", file=sys.stderr)
        return 2

    import numpy as np
    from tracer import Tracer
    from workloads import WORKLOADS, Checks

    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cores": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "commit": commit(), "source_digest": source_digest(),
        "steal_ticks_before": steal_ticks(),
    }
    # half the set-up probes run before the rounds and half after, so that
    # they sample the host over the whole run, as the rounds do
    setup = [] if args.trace else setup_samples(args.workload, args.seed, SETUP_PROBES // 2)

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    workload = WORKLOADS[args.workload](args.seed, workdir)
    checks = Checks()
    tracer = Tracer("prehyp") if args.trace else None
    try:
        plain, traced = measure(workload, pkg, checks, args.seconds, tracer)
    finally:
        getattr(workload, "close", lambda: None)()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        setup += setup_samples(args.workload, args.seed, SETUP_PROBES - SETUP_PROBES // 2)

    context["steal_ticks_after"] = steal_ticks()
    if tracer is not None:
        path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.npz")
        context["spans"] = {"file": os.path.relpath(path, ROOT), "count": tracer.dump(path),
                            "dropped": tracer.spans_dropped}
    print("context " + json.dumps(context, sort_keys=True))

    metrics = {}
    if args.trace == 0 and plain["wall"]:
        # wall_s, cpu_s, ref_s and cpu_ref are printed for reading; the
        # metrics are the round wall time in reference-kernel units, set-up
        # time and memory
        rows = [
            ("wall_s", "s", summary(plain["wall"]), False),
            ("cpu_s", "s", summary(plain["cpu"]), False),
            ("ref_s", "s", summary(plain["ref_s"]), False),
            ("wall_ref", "ref", summary(plain["wall_ref"]), True),
            ("cpu_ref", "ref", summary(plain["cpu_ref"]), False),
            ("setup_s", "s", summary(setup), True),
        ]
        for name, unit, s, metric in rows:
            print(f"{name:<14} median {s['median']:.6f} {unit}  p25 {s['p25']:.6f}  "
                  f"p75 {s['p75']:.6f}  n={s['n']}")
            if metric:
                metrics[name] = {"value": s["median"], "unit": unit}
        print(f"{'peak_rss_mib':<14} {peak_rss_mib:.3f} MiB  n=1")
        metrics["peak_rss_mib"] = {"value": peak_rss_mib, "unit": "MiB"}
    elif args.trace == 1 and traced["layers"] and plain["wall"]:
        layers = layer_summary(traced["layers"], checks)
        overhead = statistics.median(traced["wall"]) - statistics.median(plain["wall"])
        layers["trace.wall_s"] = statistics.median(traced["wall"])
        layers["trace.overhead_s"] = overhead
        units = {"calls": "count", "solves": "count", "rk4_steps": "count",
                 "rk4_node_steps": "count", "driven_solves": "count",
                 "dup_share": "ratio", "overlap": "ratio", "self_us": "us"}
        for name, value in layers.items():
            unit = units.get(name.rsplit(".", 1)[-1], "s")
            print(f"{name:<36} {value!r} {unit}")
            metrics[name] = {"value": value, "unit": unit}
        print(f"traced rounds n={len(traced['wall'])}, untraced rounds n={len(plain['wall'])}, "
              f"tracing overhead {overhead:.6f} s per round")
    failed = len(checks.failures)
    attempted = max(checks.attempted, 1)
    print(f"{'failed_share':<14} {failed}/{attempted} = {failed / attempted!r}")
    for f in checks.failures:
        print(f"  FAILED {f}")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
