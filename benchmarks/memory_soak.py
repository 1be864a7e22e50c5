#!/usr/bin/env python
"""Memory soak: the engine cell's memory grows by a flat amount per op.

Runs the engine cell (4 queues x QD 8, 4 streams, byteexpress, MixGraph
value sizes, NAND off) under ``tracemalloc`` at two op counts and
reports the traced memory each run leaves behind, per op.  Every op
writes its own logical page, so the NAND-off store grows with the op
count by design; what must hold is that the cost per op is small and
flat.  The soak fails unless

* both runs grow at most ``MAX_BYTES_PER_OP`` per op, and
* bytes/op at the larger count is within ``MAX_DRIFT`` of the smaller.

No results file is written: tracemalloc byte counts differ across
Python versions.

Usage::

    PYTHONPATH=src python benchmarks/memory_soak.py

``tests/engine/test_hot_path.py`` runs ``traced_bytes_per_op`` on a
short engine cell as a tier-1 bound.
"""

from __future__ import annotations

import sys
import tracemalloc

from repro.engine import LoadGenerator, StreamSpec
from repro.testbed import make_engine_testbed

QUEUES = 4
QD = 8
STREAMS = 4
OPS_SMALL = 50_000
OPS_LARGE = 200_000
MAX_BYTES_PER_OP = 400
MAX_DRIFT = 0.10


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


def main() -> int:
    per_op = {ops: traced_bytes_per_op(ops) for ops in (OPS_SMALL, OPS_LARGE)}
    for ops, value in per_op.items():
        print(f"{ops:>9,} ops: {value:7.1f} traced B/op "
              f"(limit {MAX_BYTES_PER_OP})")
    drift = per_op[OPS_LARGE] / per_op[OPS_SMALL] - 1
    print(f"drift {OPS_SMALL:,} -> {OPS_LARGE:,} ops: {drift:+.1%} "
          f"(limit +/-{MAX_DRIFT:.0%})")
    ok = (all(v <= MAX_BYTES_PER_OP for v in per_op.values())
          and abs(drift) <= MAX_DRIFT)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
