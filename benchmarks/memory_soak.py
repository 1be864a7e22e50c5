#!/usr/bin/env python
"""Memory soaks: the engine cell's memory grows by a flat amount per op,
and a serving GET burst's transient peak by a flat amount per GET.

Runs the engine cell (4 queues x QD 8, 4 streams, byteexpress, MixGraph
value sizes, NAND off) under ``tracemalloc`` at two op counts and
reports the traced memory each run leaves behind, per op.  Every op
writes its own logical page, so the NAND-off store grows with the op
count by design; what must hold is that the cost per op is small and
flat.  The soak fails unless

* both runs grow at most ``MAX_BYTES_PER_OP`` per op, and
* bytes/op at the larger count is within ``MAX_DRIFT`` of the smaller.

The serving soak preloads keys into a ``KvService`` (NAND on), then
submits one burst of GETs without polling, at two burst sizes, and
reports the burst's traced peak per GET, the caller's own futures and
values included.  A device GET resolves in the engine round that reaps
its CQE, so the service holds only the engine's in-flight commands.
The soak fails unless both bursts peak at most ``MAX_BYTES_PER_GET``
per GET and the larger burst is within ``MAX_DRIFT`` of the smaller.

No results file is written: tracemalloc byte counts differ across
Python versions.

Usage::

    PYTHONPATH=src python benchmarks/memory_soak.py

``tests/engine/test_hot_path.py`` runs ``traced_bytes_per_op`` on a
short engine cell as a tier-1 bound; ``tests/kvssd/test_service.py``
bounds a short GET burst the same way.
"""

from __future__ import annotations

import sys
import tracemalloc
from typing import Callable

from repro.engine import LoadGenerator, StreamSpec
from repro.testbed import make_engine_testbed, make_kv_testbed
from repro.workloads.serving import session_key

QUEUES = 4
QD = 8
STREAMS = 4
OPS_SMALL = 50_000
OPS_LARGE = 200_000
MAX_BYTES_PER_OP = 400
MAX_DRIFT = 0.10
GETS_SMALL = 8_192
GETS_LARGE = 32_768
VALUE_BYTES = 64
MAX_BYTES_PER_GET = 500


def traced_bytes_per_op(ops: int) -> float:
    """Traced memory one engine-cell run of *ops* ops leaves behind,
    per op (tracing starts once the rig is built)."""
    tb = make_engine_testbed(queues=QUEUES)
    engine = tb.make_engine(queues=QUEUES, qd=QD)
    streams = [StreamSpec(i, ops=ops // STREAMS, size="mixgraph",
                          concurrency=QUEUES * QD // STREAMS)
               for i in range(STREAMS)]
    gen = LoadGenerator(engine, streams, seed=1, method="byteexpress")
    tracemalloc.start()
    try:
        report = gen.run()
        grown = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    if report.total_ok != report.total_ops:
        raise SystemExit(f"{report.total_ops - report.total_ok} of "
                         f"{report.total_ops} ops failed")
    return grown / report.total_ops


def burst_peak_bytes_per_get(gets: int) -> float:
    """Traced peak of one burst of *gets* GETs submitted to a
    ``KvService`` without a poll, per GET (tracing starts once the keys
    are preloaded)."""
    tb = make_kv_testbed()
    service = tb.make_service(qd=8, batch_window_ns=4000.0)
    session = service.open_session()
    keys = [session_key(0, kid) for kid in range(gets)]
    value = bytes(VALUE_BYTES)
    for key in keys:
        session.put(key, value)
    service.drain()
    tracemalloc.start()
    try:
        futures = [session.get(key) for key in keys]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    service.drain()
    bad = sum(not f.ok or f.value != value for f in futures)
    if bad:
        raise SystemExit(f"{bad} of {gets} GETs failed or mismatched")
    return peak / gets


def _check(label: str, unit: str, sizes: tuple, limit: float,
           measure: Callable[[int], float]) -> bool:
    """Print one soak's runs and drift; True when both hold."""
    per = {n: measure(n) for n in sizes}
    for n, value in per.items():
        print(f"{n:>9,} {label}: {value:7.1f} traced B/{unit} "
              f"(limit {limit})")
    small, large = sizes
    drift = per[large] / per[small] - 1
    print(f"drift {small:,} -> {large:,} {label}: {drift:+.1%} "
          f"(limit +/-{MAX_DRIFT:.0%})")
    return (all(v <= limit for v in per.values())
            and abs(drift) <= MAX_DRIFT)


def main() -> int:
    engine_ok = _check("ops", "op", (OPS_SMALL, OPS_LARGE), MAX_BYTES_PER_OP,
                       traced_bytes_per_op)
    serving_ok = _check("GETs", "GET peak", (GETS_SMALL, GETS_LARGE),
                        MAX_BYTES_PER_GET, burst_peak_bytes_per_get)
    return 0 if engine_ok and serving_ok else 1


if __name__ == "__main__":
    sys.exit(main())
