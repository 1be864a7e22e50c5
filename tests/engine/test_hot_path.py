"""Engine write hot path: the shortcuts it takes must not change behaviour.

The per-op path reads object fields directly and inlines small helpers;
these tests pin what must stay the same: the payload bytes, the write
offsets, every call site the protocol monitor wraps, and memory that
does not grow with the op count.
"""

import pytest

from repro.engine import LoadGenerator, StreamSpec
from repro.engine.loadgen import _payload_bytes
from repro.nvme.constants import PAGE_SIZE
from repro.testbed import make_engine_testbed
from repro.verify import (
    INV_CID_UNIQUE,
    INV_CQ_OVERRUN,
    INV_CQ_PHASE,
    INV_INLINE_SEQ,
    INV_RR_FAIRNESS,
    INV_SQ_DOORBELL,
    INV_SQ_WINDOW,
)


@pytest.mark.parametrize("size", [1, 63, 64, 65, 4096, 4097, 9000])
def test_payload_bytes_matches_scalar_fill(size):
    for base in range(512):
        assert _payload_bytes(base, size) == bytes(
            (base + i) & 0xFF for i in range(size)), (base, size)


def test_writes_past_4gib_keep_distinct_offsets():
    """The byte offset's high dword rides in CDW11: ops past 1M pages
    must not wrap onto LPN 0 and overwrite acknowledged writes."""
    tb = make_engine_testbed(queues=1)
    engine = tb.make_engine(queues=1, qd=1)
    gen = LoadGenerator(engine, [StreamSpec(0, ops=4, size="fixed:64")],
                        seed=1)
    first = 2**32 - PAGE_SIZE
    gen._next_offset = first
    report = gen.run()
    assert report.total_ok == 4
    lpns = sorted(tb.personality._pages)
    base = first // PAGE_SIZE
    assert lpns == [base, base + 1, base + 2, base + 3]
    for i in range(4):
        assert tb.personality.read_back(first + i * PAGE_SIZE, 64) == (
            _payload_bytes(i * 131, 64))


def test_monitor_sees_every_wrapped_call(monkeypatch):
    """Each wrapped call site (``push_raw``, ``ring_doorbell``,
    ``note_sq_head``, ``cq.poll``, the device CQ ``post``,
    ``_alloc_cid``, ``table.add``, ``poll_once``) is still called once
    per event: the check counts equal the ones taken before the hot
    path was trimmed."""
    monkeypatch.setenv("REPRO_VERIFY", "1")
    tb = make_engine_testbed(queues=4)
    engine = tb.make_engine(queues=4, qd=8)
    streams = [StreamSpec(i, ops=500, size="mixgraph", concurrency=8)
               for i in range(4)]
    assert LoadGenerator(engine, streams, seed=1).run().total_ok == 2000
    checks = tb.monitor.checks
    assert {rule: checks[rule] for rule in (
        INV_SQ_WINDOW, INV_INLINE_SEQ, INV_SQ_DOORBELL, INV_CQ_PHASE,
        INV_CQ_OVERRUN, INV_CID_UNIQUE, INV_RR_FAIRNESS)} == {
        INV_SQ_WINDOW: 6511,
        INV_INLINE_SEQ: 4511,
        INV_SQ_DOORBELL: 252,
        INV_CQ_PHASE: 4000,
        INV_CQ_OVERRUN: 2000,
        INV_CID_UNIQUE: 4000,
        INV_RR_FAIRNESS: 500,
    }


def test_span_storage_is_bounded_by_span_names():
    """The clock keeps one total per span name, not a record per span:
    after 10k engine ops it holds no container larger than the set of
    span names."""
    tb = make_engine_testbed(queues=4)
    engine = tb.make_engine(queues=4, qd=8)
    streams = [StreamSpec(i, ops=2500, concurrency=8) for i in range(4)]
    assert LoadGenerator(engine, streams, seed=1).run().total_ok == 10_000
    clock = tb.clock
    names = clock.span_totals()
    assert set(names) >= {"drv.sq_submit", "ctrl.sq_fetch",
                          "ctrl.completion", "drv.completion"}
    for value in vars(clock).values():
        if isinstance(value, (list, dict, set, tuple)):
            assert len(value) <= len(names)
