"""Engine write hot path: the shortcuts it takes must not change behaviour.

The per-op path reads object fields directly and inlines small helpers;
these tests pin what must stay the same: the payload bytes, the write
offsets, every call site the protocol monitor wraps, and memory that
does not grow with the op count.
"""

import importlib.util
import pathlib

import pytest

from repro.engine import LoadGenerator, StreamSpec
from repro.engine.loadgen import _payload_bytes
from repro.host.driver import DriverError
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


@pytest.mark.parametrize("method", ["prp", "sgl", "byteexpress"])
def test_write_at_4gib_lands_at_4gib(method):
    """A write whose offset's high dword is 1 lands at 4 GiB, not on
    the block at offset 0."""
    tb = make_engine_testbed(queues=1)
    engine = tb.make_engine(queues=1, qd=4)
    fut = engine.submit(b"HIGH" * 10, method=method, cdw10=0, cdw11=1)
    engine.drain()
    assert fut.ok
    assert tb.personality.read_back(1 << 32, 8) == b"HIGHHIGH"
    assert tb.personality.read_back(0, 8) == bytes(8)


def test_bandslim_write_past_4gib_is_refused_not_wrapped():
    """BandSlim's twin of the test above: a fragment carries the
    target's CDW10 only, so a write that needs CDW11 is refused before
    it takes a CID, never landed at its offset modulo 4 GiB over the
    block there."""
    tb = make_engine_testbed(queues=1)
    engine = tb.make_engine(queues=1, qd=4)
    res = tb.driver.queue(engine.qids[0])
    with pytest.raises(DriverError, match="CDW11"):
        engine.submit(b"HIGH" * 10, method="bandslim", cdw10=0, cdw11=1)
    engine.drain()
    assert not res.live_cids and not res.payload_ids
    assert tb.personality.read_back(0, 8) == bytes(8)
    assert tb.personality.read_back(1 << 32, 8) == bytes(8)
    # A write below 4 GiB on the same queue still goes through.
    fut = engine.submit(b"HIGH" * 10, method="bandslim", cdw10=PAGE_SIZE)
    engine.drain()
    assert fut.ok
    assert tb.personality.read_back(PAGE_SIZE, 8) == b"HIGHHIGH"


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


def _memory_soak():
    """``benchmarks/memory_soak.py``, loaded as a module."""
    path = (pathlib.Path(__file__).resolve().parents[2]
            / "benchmarks" / "memory_soak.py")
    spec = importlib.util.spec_from_file_location("memory_soak", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_engine_cell_memory_grows_by_the_bytes_written():
    """The NAND-off store keeps each page's written extent, not a padded
    4 KiB page: 8,192 MixGraph ops of the engine cell grow traced memory
    by at most 600 B/op (a padded page per op grew it ~4.3 KB/op).  The
    measurement is the CI memory soak's, on a short run."""
    per_op = _memory_soak().traced_bytes_per_op(8192)
    assert per_op <= 600, f"{per_op:.0f} B/op"
