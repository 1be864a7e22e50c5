"""Fault-free engine golden: the engine cell's run is pinned byte for byte.

The engine cell the repo benchmark's ``engine_inline`` workload runs
(4 queues x QD 8, 4 streams, MixGraph sizes up to 4 KiB, byteexpress
writes, NAND off) is run for 2,048 writes with no fault plan.
Everything its mixed-size, multi-lane hot path produces is captured:
final simulated time, the traffic breakdown (bytes and TLPs per
category, protocol events), the engine's counters and the in-flight
high water, and every future's outcome.  The capture is compared as
serialised JSON against the checked-in golden, so a change to any
simulated cost, TLP or completion order fails here, in tier 1.

Regenerate (only for an intended behaviour change)::

    PYTHONPATH=src python tests/engine/test_engine_golden.py --write
"""

import hashlib
import json
import os
import sys

from repro.engine.loadgen import LoadGenerator, StreamSpec
from repro.testbed import make_engine_testbed

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_engine_cell.json")

QUEUES = 4
QD = 8
OPS = 2048
STREAMS = 4
SEED = 1
MAX_SIZE = 4096


def capture() -> dict:
    """Run the fault-free cell once; every observable it produces."""
    tb = make_engine_testbed(queues=QUEUES)
    engine = tb.make_engine(queues=QUEUES, qd=QD)
    futures = []
    inner = engine.submit

    def submit(payload, **kw):
        fut = inner(payload, **kw)
        futures.append(fut)
        return fut

    engine.submit = submit
    streams = [StreamSpec(stream_id=i, ops=OPS // STREAMS, size="mixgraph",
                          concurrency=QUEUES * QD // STREAMS,
                          max_size=MAX_SIZE)
               for i in range(STREAMS)]
    LoadGenerator(engine, streams, seed=SEED, method="byteexpress").run()
    engine.drain()

    traffic = tb.traffic
    outcomes = [[f.ok, f.status, f.attempts, f.method_used, f.latency_ns]
                for f in futures]
    stats = engine.stats
    return {
        "sim_ns": tb.clock.now,
        "traffic": {
            "bytes": traffic.breakdown(),
            "tlps": traffic.tlp_breakdown(),
            "events": traffic.events(),
        },
        "engine": {name: getattr(stats, name) for name in (
            "submitted", "completed", "failed", "retries", "timeouts",
            "re_rings", "backpressure_waits")},
        "inflight_high_water": engine.table.high_water,
        "stored_bytes": tb.personality.stored_bytes,
        "futures": {
            "count": len(outcomes),
            "ok": sum(1 for o in outcomes if o[0]),
            "latency_ns": sum(o[4] for o in outcomes),
            "sha256": hashlib.sha256(
                json.dumps(outcomes).encode()).hexdigest(),
        },
    }


def _dump(data: dict) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def test_engine_cell_matches_golden():
    got = capture()
    assert got["futures"]["count"] == OPS
    assert got["futures"]["ok"] == OPS
    with open(GOLDEN) as fh:
        want = fh.read()
    assert _dump(got) == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_engine_golden.py --write")
    with open(GOLDEN, "w") as fh:
        fh.write(_dump(capture()))
