"""IoEngine behaviour: pipelining, backpressure, recovery at QD > 1."""

import pytest

from repro.engine import EngineSaturatedError, IoEngine
from repro.engine.table import TIMED_OUT
from repro.faults.plan import (
    CORRUPT_CHUNK,
    DROP_CQE,
    DROP_DOORBELL,
    FaultPlan,
)
from repro.host.driver import RetryPolicy
from repro.host.errors import DriverError
from repro.pcie.traffic import EVT_RETRY, EVT_TIMEOUT
from repro.ssd.controller import MODE_TAGGED
from repro.testbed import make_engine_testbed


def _rig(queues=4, fault_plan=None, mode=None, **engine_kw):
    kw = dict(queues=queues, fault_plan=fault_plan)
    if mode is not None:
        kw["mode"] = mode
    tb = make_engine_testbed(**kw)
    return tb, tb.make_engine(queues=queues, **engine_kw)


def _bringup_opportunities(kind, queues):
    """Fault opportunities of *kind* consumed by controller bring-up
    (same probe idiom as the PR 1 recovery tests): scheduling at this
    index targets the first I/O-phase opportunity."""
    probe_plan = FaultPlan.scheduled({kind: [10 ** 9]})
    probe = make_engine_testbed(queues=queues, fault_plan=probe_plan)
    return probe.ssd.faults.opportunities[kind]


def test_submit_returns_pending_future_resolved_by_drain():
    tb, eng = _rig(queues=2, qd=4)
    fut = eng.submit(b"a" * 64, cdw10=0)
    assert not fut.done
    eng.drain()
    assert fut.ok
    assert fut.attempts == 1
    assert fut.method_used == "byteexpress"
    assert fut.latency_ns > 0


def test_pipeline_reaches_full_depth_and_data_lands():
    tb, eng = _rig(queues=4, qd=8)
    futs = [eng.submit(bytes([i]) * 64, cdw10=i * 4096, stream=i % 4)
            for i in range(32)]
    eng.drain()
    assert all(f.ok for f in futs)
    assert eng.table.high_water == 32  # genuinely 4 queues x QD 8 deep
    for i in (0, 7, 31):
        assert tb.personality.read_back(i * 4096, 64) == bytes([i]) * 64


def test_multi_queue_qd_beats_single_queue_serial():
    """The acceptance bar: 4 queues x QD 8 is >= 2x IOPS of 1 x QD 1."""
    def run(queues, qd, ops=400):
        tb, eng = _rig(queues=queues, qd=qd)
        t0 = eng.clock.now
        futs = [eng.submit(b"\x5a" * 64, cdw10=i * 4096) for i in range(ops)]
        eng.drain()
        assert all(f.ok for f in futs)
        return ops / (eng.clock.now - t0)

    assert run(4, 8) >= 2.0 * run(1, 1)


def test_backpressure_bounds_inflight():
    tb, eng = _rig(queues=2, qd=2)
    futs = [eng.submit(b"b" * 64, cdw10=i * 4096) for i in range(40)]
    eng.drain()
    assert all(f.ok for f in futs)
    assert eng.table.high_water <= 4  # 2 queues x QD 2
    assert eng.stats.backpressure_waits > 0


def test_callbacks_fire_after_the_round_that_resolves_them():
    tb, eng = _rig(queues=1, qd=4)
    fired = []
    futs = [eng.submit(b"c" * 64, cdw10=i * 4096) for i in range(4)]
    for fut in futs:
        fut.callback = fired.append
    assert eng.poll() == 4
    assert fired == futs  # in resolve order, by the poll that reaped them


def test_callbacks_fire_inside_a_backpressured_submission():
    """A submission that waits for a slot runs whole engine rounds, and
    their callbacks fire there.  A callback that submits more work only
    queues the callbacks of the rounds its own waits run; the outer
    drain fires them, in resolve order, before it returns."""
    tb, eng = _rig(queues=1, qd=1)
    fired = []
    more = []

    def submit_two_more(fut):
        fired.append(fut)
        for i in range(2):
            more.append(eng.submit(b"e" * 64, cdw10=(8 + i) * 4096))
            more[-1].callback = fired.append
        # Placing the second write reaped the first one in a nested
        # round, whose callback is queued behind this one.
        assert more[0].done and fired == [first]

    first = eng.submit(b"d" * 64)
    first.callback = submit_two_more
    # Placing `second` reaps `first`; its callback takes the freed slot.
    second = eng.submit(b"d" * 64, cdw10=4096)
    second.callback = fired.append
    assert fired == [first, more[0], more[1]]
    eng.drain()
    assert fired == [first, *more, second]
    assert all(f.ok for f in fired)


def test_a_timed_out_future_fires_its_callback():
    policy = RetryPolicy(max_attempts=1, deadline_ns=1e9)
    plan = FaultPlan.scheduled({DROP_CQE: list(range(50))})
    tb = make_engine_testbed(queues=1, fault_plan=plan)
    tb.driver.retry_policy = policy
    eng = tb.make_engine(queues=1, qd=2)
    fired = []
    eng.submit(b"z" * 64).callback = fired.append
    eng.drain()
    assert [f.state for f in fired] == [TIMED_OUT]


def test_oversized_submission_is_rejected_not_wedged():
    tb, eng = _rig(queues=1, qd=1)
    with pytest.raises(EngineSaturatedError):
        # 70 KiB of tagged/queue-local chunks can never fit a 1024-slot
        # SQ... but 64 KiB inline is also beyond MAX_INLINE-adjacent SQ
        # space once the command slot is counted at depth 1024.
        eng.submit(b"x" * (64 * 1024), method="byteexpress")


def test_unknown_method_and_empty_payload():
    tb, eng = _rig(queues=1)
    with pytest.raises(DriverError):
        eng.submit(b"x", method="mmio")
    with pytest.raises(DriverError):
        eng.submit(b"")


def test_engine_fetch_lanes_are_the_controllers():
    tb, eng = _rig(queues=1)
    assert eng.fetch_lanes == tb.ssd.config.fetch_lanes


@pytest.mark.parametrize("queues", [(), []])
def test_empty_queue_set_is_refused(queues):
    tb = make_engine_testbed(queues=1)
    with pytest.raises(DriverError):
        IoEngine(tb.ssd, tb.driver, queues=queues)


def test_rig_without_io_queues_refuses_an_engine():
    tb = make_engine_testbed(queues=1)
    for qid in list(tb.driver.io_qids):
        tb.driver.delete_io_queue_pair(qid)
    with pytest.raises(DriverError):
        IoEngine(tb.ssd, tb.driver)
    with pytest.raises(DriverError):
        tb.make_engine()


def test_prp_path_uses_private_buffers_at_depth():
    """Concurrent PRP writes must not clobber each other's staging."""
    tb, eng = _rig(queues=2, qd=8)
    payloads = [bytes([i]) * 300 for i in range(16)]
    futs = [eng.submit(p, method="prp", cdw10=i * 4096)
            for i, p in enumerate(payloads)]
    eng.drain()
    assert all(f.ok for f in futs)
    for i, p in enumerate(payloads):
        assert tb.personality.read_back(i * 4096, 300) == p
    # and the private pages were all released on retirement
    assert not any(res.pending_pages
                   for res in (tb.driver.queue(q) for q in eng.qids))


def test_tagged_mode_interleaves_across_queues():
    tb, eng = _rig(queues=4, qd=8, mode=MODE_TAGGED)
    payloads = [bytes([(i * 7 + j) % 256 for j in range(150)])
                for i in range(24)]
    futs = [eng.submit(p, cdw10=i * 4096, stream=i % 6)
            for i, p in enumerate(payloads)]
    eng.drain()
    assert all(f.ok for f in futs)
    for i, p in enumerate(payloads):
        assert tb.personality.read_back(i * 4096, 150) == p
    # reassembly actually tracked concurrent payloads, and none leaked
    ctrl = tb.ssd.controller
    assert ctrl._reassembly.high_water >= 2
    assert ctrl._reassembly.in_flight == 0
    assert not eng.driver._live_payload_ids


def test_bandslim_through_engine():
    tb, eng = _rig(queues=2, qd=4)
    payloads = [bytes([i + 1]) * 100 for i in range(12)]
    futs = [eng.submit(p, method="bandslim", cdw10=i * 4096)
            for i, p in enumerate(payloads)]
    eng.drain()
    assert all(f.ok for f in futs)
    for i, p in enumerate(payloads):
        assert tb.personality.read_back(i * 4096, 100) == p


# ----------------------------------------------------------------------
# PR 1 recovery semantics, now at QD > 1 through the reactor
# ----------------------------------------------------------------------

def test_dropped_doorbell_recovered_by_re_ring():
    first_io = _bringup_opportunities(DROP_DOORBELL, queues=2)
    plan = FaultPlan.scheduled({DROP_DOORBELL: [first_io]})
    tb, eng = _rig(queues=2, qd=4, fault_plan=plan)
    futs = [eng.submit(b"d" * 64, cdw10=i * 4096) for i in range(8)]
    eng.drain()
    assert all(f.ok for f in futs)
    assert eng.stats.re_rings >= 1
    # The re-ring fully recovers a lost tail write: the commands were
    # only stalled, never timed out, so no timeout may be charged.
    assert eng.stats.timeouts == 0
    assert tb.traffic.event_count(EVT_TIMEOUT) == 0
    # re-ring suffices: no resubmission needed for a lost tail update
    assert all(f.attempts == 1 for f in futs)


def test_dropped_cqe_recovered_by_backoff_resubmit():
    plan = FaultPlan.scheduled({DROP_CQE: [2]})
    tb, eng = _rig(queues=2, qd=4, fault_plan=plan)
    futs = [eng.submit(bytes([i]) * 64, cdw10=i * 4096) for i in range(8)]
    eng.drain()
    assert all(f.ok for f in futs)
    assert eng.stats.retries >= 1
    assert tb.traffic.event_count(EVT_RETRY) >= 1
    assert max(f.attempts for f in futs) >= 2
    # the resubmitted write still landed
    for i in range(8):
        assert tb.personality.read_back(i * 4096, 64) == bytes([i]) * 64


def test_corrupt_chunk_error_cqe_retried_to_success():
    plan = FaultPlan.scheduled({CORRUPT_CHUNK: [1]})
    tb, eng = _rig(queues=2, qd=4, fault_plan=plan)
    futs = [eng.submit(b"c" * 64, cdw10=i * 4096) for i in range(6)]
    eng.drain()
    assert all(f.ok for f in futs)
    assert eng.stats.retries >= 1


def test_retry_budget_exhaustion_fails_future():
    """Every CQE for one command lost → attempts run out → TIMED_OUT."""
    policy = RetryPolicy(max_attempts=2, backoff_base_ns=10.0,
                         deadline_ns=1e9)
    plan = FaultPlan.scheduled({DROP_CQE: list(range(50))})
    tb = make_engine_testbed(queues=1, fault_plan=plan)
    tb.driver.retry_policy = policy
    eng = tb.make_engine(queues=1, qd=2)
    fut = eng.submit(b"z" * 64)
    eng.drain()
    assert fut.done
    assert fut.state == TIMED_OUT
    assert fut.attempts == 2
    assert eng.stats.failed == 1
    # the abandoned CIDs were retired, not leaked
    assert tb.driver.inflight(eng.qids[0]) == 0


def test_breaker_trips_and_falls_back_to_prp_at_depth():
    """Persistent inline faults open the breaker; later submissions ride
    PRP and complete — fault-tolerant, merely slower (PR 1 semantics)."""
    plan = FaultPlan.uniform(rate=1.0, seed=5, kinds=(CORRUPT_CHUNK,))
    tb, eng = _rig(queues=2, qd=4, fault_plan=plan)
    futs = [eng.submit(bytes([i + 1]) * 64, cdw10=i * 4096)
            for i in range(12)]
    eng.drain()
    assert tb.driver.breaker.trips >= 1
    assert eng.stats.breaker_trips >= 1
    assert eng.stats.inline_fallbacks >= 1
    fell_back = [f for f in futs if f.method_used == "prp"]
    assert fell_back and all(f.ok for f in fell_back)
    # every future resolved one way or the other; nothing wedged
    assert all(f.done for f in futs)
    assert len(eng.table) == 0 and not eng.parked


def test_lost_cqes_leave_no_live_cids_behind():
    """Abandoned attempts (dropped CQEs) must retire their CIDs: after a
    lossy drain nothing may remain live on any queue."""
    plan = FaultPlan.scheduled({DROP_CQE: [1, 3]})
    tb, eng = _rig(queues=1, qd=4, fault_plan=plan)
    futs = [eng.submit(b"s" * 64, cdw10=i * 4096) for i in range(6)]
    eng.drain()
    assert all(f.done for f in futs)
    assert tb.driver.inflight(eng.qids[0]) == 0


def test_recovery_under_sustained_random_faults_at_depth():
    """The integration-grade check: a lossy rig at 4 queues x QD 8 still
    completes every op, with retries/timeouts > 0 proving the recovery
    paths actually ran through the reactor."""
    plan = FaultPlan.uniform(rate=0.02, seed=99,
                             kinds=(DROP_CQE, DROP_DOORBELL, CORRUPT_CHUNK))
    tb, eng = _rig(queues=4, qd=8, fault_plan=plan)
    futs = [eng.submit(bytes([i % 251 + 1]) * 64, cdw10=i * 4096,
                       stream=i % 8) for i in range(300)]
    eng.drain()
    assert all(f.ok for f in futs)
    assert eng.stats.retries > 0
    assert eng.stats.timeouts > 0
    assert eng.stats.completed == 300
    for qid in eng.qids:
        assert tb.driver.inflight(qid) == 0
