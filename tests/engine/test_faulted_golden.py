"""Faulted-engine golden: an armed fault plan's run is pinned byte for byte.

The engine cell (2 queues x QD 4, 2,000 MixGraph-sized byteexpress
writes) runs under ``FaultPlan.uniform(0.002)`` on the four kinds the
repo benchmark's faulted workload arms.  Everything the plan can move is
captured: final simulated time, the traffic breakdown (bytes and TLPs
per category, protocol events), per-kind fault opportunities and
injections, engine recovery counts, and every future's outcome.  The
capture is compared as serialised JSON against the checked-in golden, so
any change to where a fault lands — or to what it costs — fails here.

Regenerate (only for an intended behaviour change)::

    PYTHONPATH=src python tests/engine/test_faulted_golden.py --write
"""

import hashlib
import json
import os
import sys

from repro.engine.loadgen import LoadGenerator, StreamSpec
from repro.faults import ALL_KINDS, FaultPlan
from repro.testbed import make_engine_testbed

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_faulted_engine.json")

QUEUES = 2
QD = 4
OPS = 2000
STREAMS = 2
SEED = 7
RATE = 0.002
KINDS = ("drop_doorbell", "drop_cqe", "corrupt_chunk", "corrupt_tlp")


def capture() -> dict:
    """Run the faulted cell once; every observable it produces."""
    plan = FaultPlan.uniform(RATE, kinds=KINDS)
    tb = make_engine_testbed(queues=QUEUES, fault_plan=plan)
    engine = tb.make_engine(queues=QUEUES, qd=QD)
    futures = []
    inner = engine.submit

    def submit(payload, **kw):
        fut = inner(payload, **kw)
        futures.append(fut)
        return fut

    engine.submit = submit
    streams = [StreamSpec(stream_id=i, ops=OPS // STREAMS, size="mixgraph",
                          concurrency=QUEUES * QD // STREAMS)
               for i in range(STREAMS)]
    LoadGenerator(engine, streams, seed=SEED, method="byteexpress").run()
    engine.drain()

    traffic = tb.traffic
    faults = tb.ssd.faults
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
        "faults": {kind: [faults.opportunities[kind], faults.injected[kind]]
                   for kind in ALL_KINDS},
        "engine": {name: getattr(stats, name) for name in (
            "completed", "failed", "retries", "timeouts", "re_rings")},
        "futures": {
            "count": len(outcomes),
            "ok": sum(1 for o in outcomes if o[0]),
            "attempts": sum(o[2] for o in outcomes),
            "latency_ns": sum(o[4] for o in outcomes),
            "sha256": hashlib.sha256(
                json.dumps(outcomes).encode()).hexdigest(),
        },
    }


def _dump(data: dict) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def test_faulted_engine_matches_golden():
    got = capture()
    assert got["futures"]["count"] == OPS
    assert sum(inj for _opp, inj in got["faults"].values()) > 0
    with open(GOLDEN) as fh:
        want = fh.read()
    assert _dump(got) == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_faulted_golden.py --write")
    with open(GOLDEN, "w") as fh:
        fh.write(_dump(capture()))
