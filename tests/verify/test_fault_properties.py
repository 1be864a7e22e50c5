"""Property test: monitored fault runs never corrupt silently.

Under randomized doorbell drops, CQE drops, and chunk corruption, every
engine run must end in one of exactly two states: (a) the run completes
and every future that claims success reads back byte-identical data
with zero recorded violations, or (b) it fails *loudly* — the monitor
raises :class:`InvariantViolation`, or the driver/engine raises its own
error (uniform fault plans can fire during controller bring-up on the
admin queue, where there is no retry machinery — a known loud abort).
What may never happen is the third state: the run "succeeds" while
queue state or data quietly went wrong.
"""

from hypothesis import given, settings, strategies as st

from repro.faults.plan import (
    CORRUPT_CHUNK,
    DROP_CQE,
    DROP_DOORBELL,
    FaultPlan,
)
from repro.host.errors import DeviceError, DriverError
from repro.testbed import make_engine_testbed
from repro.verify.invariants import InvariantViolation
from repro.verify.monitor import ProtocolMonitor


@settings(max_examples=12, deadline=None)
@given(
    rate=st.sampled_from([0.0, 0.05, 0.15]),
    fault_seed=st.integers(min_value=0, max_value=2 ** 16),
    sizes=st.lists(st.integers(min_value=1, max_value=200),
                   min_size=3, max_size=10),
)
def test_faulted_runs_complete_cleanly_or_flag_an_invariant(
        rate, fault_seed, sizes):
    plan = (FaultPlan.uniform(rate, seed=fault_seed,
                              kinds=(DROP_DOORBELL, DROP_CQE,
                                     CORRUPT_CHUNK))
            if rate else None)
    payloads = [bytes((i * 31 + j) % 251 + 1 for j in range(size))
                for i, size in enumerate(sizes)]
    try:
        tb = make_engine_testbed(queues=2, fault_plan=plan).unmonitor()
        monitor = ProtocolMonitor.attach_testbed(tb)
        tb.monitor = monitor
        engine = tb.make_engine(queues=2, qd=4)
        futures = [engine.submit(p, cdw10=i * 4096)
                   for i, p in enumerate(payloads)]
        engine.drain()
    except (InvariantViolation, DriverError, DeviceError):
        return  # outcome (b): failed loudly, with attribution
    # Outcome (a): whatever claims success must be provably right.
    assert monitor.violations == []
    for i, (payload, fut) in enumerate(zip(payloads, futures)):
        if fut.ok:
            got = tb.personality.read_back(i * 4096, len(payload))
            assert got == payload, (
                f"payload {i} claimed success but corrupted")
    for qid in engine.qids:
        assert tb.driver.inflight(qid) == 0
