#!/usr/bin/env python3
"""The repo benchmark: one workload, end to end or per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload engine_inline --seed 1 \\
        --seconds 20 --trace 0

A run repeats *set up a fresh rig → measured window → verify* until
``--seconds`` have passed (at least three repetitions).  Simulated
results are deterministic per seed, so every repetition must reproduce
the first one exactly.

Throughput and set-up time are taken in CPU time of the benchmark's one
thread and scaled by the machine's current speed, which a fixed
reference workload measures at the same moments (``reference.py``): on
a shared virtual machine a vCPU's speed drifts by up to 2x as other
tenants come and go, and neither wall nor CPU time alone hides that.
Throughput is the median over the repetitions, set-up time the import
plus the median rig build.  The median unscaled wall rate is printed
for reference on the lines before the result.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and ``cProfile``-traced repetitions and prints the per-layer
table: calls and self time by package, cumulative time at the layers'
public entry points, and the deterministic counters read from the
rig's public objects after each window.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import cProfile
import gc
import json
import os
import pstats
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

from reference import Meter, Reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("engine_inline", "engine_faulted", "passthru_qd1",
                  "kv_serving")
MIN_REPS = 3
#: Reference steps run alone around the imports, and around each rig
#: build, to scale their CPU time.
IMPORT_BURST = 30
SETUP_BURST = 8

#: Unit of a metric, by name suffix (first match wins).  Simulated time
#: has units of its own (``sim_us``, ``sim_ns``, ``ops/sim_ms``): it is
#: a deterministic model output, not time the benchmark waited for.
_UNITS = (
    ("norm_ops_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("sim_kiops", "ops/sim_ms"), ("p50_us", "sim_us"), ("p99_us", "sim_us"),
    ("p999_us", "sim_us"), ("pcie_bytes_per_op", "B"), ("_frac", "ratio"),
    ("us_per_op", "us"), ("ns_per_op", "sim_ns"), ("self_share", "ratio"),
    ("hit_rate", "ratio"), ("_share", "ratio"),
    ("write_amplification", "ratio"), ("trace_overhead", "ratio"),
)


def unit_of(name: str) -> str:
    for suffix, unit in _UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


class Rep:
    """One repetition: set-up time, throughput and pooled outcome."""

    def __init__(self, setup_s: float, meter: Meter, wall_s: float, out,
                 traced: bool, profile: Optional[pstats.Stats]) -> None:
        #: Scaled CPU seconds of the rig build.
        self.setup_s = setup_s
        #: Ops per CPU second over the rig's measured windows, unscaled
        #: and scaled to the reference machine's speed.
        self.cpu_rate = out.ops / meter.work_s
        self.rate = (self.cpu_rate * meter.slowdown() if meter.steps
                     else self.cpu_rate)
        #: Ops per wall second over the windows and the reference steps
        #: between them (for reference only).
        self.wall_rate = out.ops / wall_s
        self.out = out
        self.traced = traced
        self.profile = profile


def _percentile(samples: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(samples, dtype=float), q))


def _beyond(samples: List[float], value: float) -> int:
    return sum(1 for s in samples if s > value)


def run_reps(workload: str, seed: int, seconds: float, trace: bool):
    """Repeat the workload; returns (scaled import seconds, repetitions).

    The import time counts from interpreter start-up.  Traced
    repetitions run no reference steps, so the profile holds only the
    program and the harness.
    """
    probe = Meter(Reference())
    before = probe.burst(IMPORT_BURST)
    import workloads as wl

    import_s = time.thread_time()
    import_s /= (before + probe.burst(IMPORT_BURST)) / 2
    factory = wl.WORKLOADS[workload]
    wall = time.perf_counter
    start = wall()
    deadline = start + seconds
    reps: List[Rep] = []
    # Start another repetition while it would end nearer the deadline
    # than stopping now does.
    while (len(reps) < MIN_REPS
           or wall() + 0.5 * (wall() - start) / len(reps) < deadline):
        gc.collect()
        before = probe.burst(SETUP_BURST)
        t0 = time.thread_time()
        rig = factory(seed)
        setup_s = time.thread_time() - t0
        setup_s /= (before + probe.burst(SETUP_BURST)) / 2
        gc.collect()
        # Repetition 0 is never traced: it warms module-level memos, so
        # every traced repetition sees the same steady state.
        traced = trace and len(reps) % 2 == 1
        profiler = cProfile.Profile() if traced else None
        meter = Meter(None if traced else probe.reference)
        w0 = wall()
        out = rig.run(meter, profiler)
        wall_s = wall() - w0
        rig.verify(out)
        stats = pstats.Stats(profiler) if profiler is not None else None
        reps.append(Rep(setup_s, meter, wall_s, out, traced, stats))
        del rig
    return import_s, reps


def end_to_end(import_s: float, reps: List[Rep]) -> Dict[str, float]:
    out = reps[0].out
    lat = out.latencies
    p50, p99, p999 = (_percentile(lat, q) for q in (50, 99, 99.9))
    return {
        "norm_ops_per_s": _rate(reps, traced=False),
        "setup_s": import_s + statistics.median(r.setup_s for r in reps),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_kiops": out.ops / out.sim_ns * 1e6,
        "sim_p50_us": p50 / 1000.0,
        "sim_p99_us": p99 / 1000.0,
        "sim_p999_us": p999 / 1000.0,
        "pcie_bytes_per_op": out.pcie_bytes / out.ops,
        "verified_ops_frac": 1.0 - _failed(reps) / _attempted(reps),
        "put_p99_us": _percentile(out.put_latencies, 99) / 1000.0,
    }


def per_layer(reps: List[Rep]) -> Tuple[Dict[str, float], float]:
    """Per-layer metrics, and the share of self time no layer claims."""
    import layers

    traced = [r for r in reps if r.traced]
    merged = traced[0].profile
    for r in traced[1:]:
        merged.add(r.profile)
    ops = sum(r.out.ops for r in traced)
    metrics, lost = layers.attribute(merged, ops, layers.boundary_keys())
    metrics["trace_overhead"] = (_cpu_rate(reps, traced=False)
                                 / _cpu_rate(reps, traced=True))
    out = reps[0].out
    metrics.update(out.layer_metrics())
    metrics["kvssd.get_p99_us"] = (_percentile(out.get_latencies, 99) / 1000.0
                                   if out.get_latencies else 0.0)
    return metrics, lost


def _rate(reps: List[Rep], traced: bool) -> float:
    """Median scaled ops per second over the (un)traced repetitions."""
    return statistics.median(r.rate for r in reps if r.traced == traced)


def _cpu_rate(reps: List[Rep], traced: bool) -> float:
    """Median unscaled ops per CPU second (traced repetitions run no
    reference steps to scale by)."""
    return statistics.median(r.cpu_rate for r in reps if r.traced == traced)


def _wall_rate(reps: List[Rep]) -> float:
    return statistics.median(r.wall_rate for r in reps if not r.traced)


def _attempted(reps: List[Rep]) -> int:
    return sum(r.out.ops + r.out.verified for r in reps)


def _failed(reps: List[Rep]) -> int:
    return sum(r.out.failed + r.out.mismatched for r in reps)


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=lambda s: int(s, 0), default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import_s, reps = run_reps(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    first = reps[0].out.fingerprint()
    deterministic = all(r.out.fingerprint() == first for r in reps)
    attempted, failed = _attempted(reps), _failed(reps)
    correct = deterministic and failed == 0
    if args.trace:
        metrics, lost = per_layer(reps)
        print(f"perfbench: unattributed self time {lost:.2%}")
    else:
        metrics = end_to_end(import_s, reps)
        lat = reps[0].out.latencies
        for q in (50, 99, 99.9):
            value = _percentile(lat, q)
            print(f"perfbench: sim p{q:g} = {value / 1000.0:.3f} us over "
                  f"{len(lat)} samples, {_beyond(lat, value)} beyond")
        print(f"perfbench: wall ops/s = {_wall_rate(reps):.1f}"
              " (median, for reference)")
    print(f"perfbench: {args.workload} seed {args.seed}: {len(reps)} "
          f"repetitions, {attempted} ops checked, {failed} failed, "
          f"deterministic={deterministic}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
