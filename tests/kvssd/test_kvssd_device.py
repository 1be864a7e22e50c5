"""KV-SSD personality + host API end-to-end."""

from dataclasses import replace

import pytest

from repro.host.errors import DriverError
from repro.kvssd import KeyNotFoundError, KvError, KVStore
from repro.kvssd.commands import (
    encode_batch_payload,
    encode_store_payload,
    key_field_words,
)
from repro.nvme.constants import KvOpcode, StatusCode, VendorOpcode
from repro.sim.config import SimConfig, TimingModel
from repro.testbed import make_kv_testbed
from repro.workloads import FillRandomWorkload, MixGraphWorkload


@pytest.fixture
def rig(kv_tb):
    store = KVStore(kv_tb.driver, kv_tb.method("byteexpress"))
    return kv_tb, store


def test_put_get(rig):
    _, store = rig
    store.put(b"alpha", b"beta")
    assert store.get(b"alpha") == b"beta"


def test_get_missing_raises(rig):
    _, store = rig
    with pytest.raises(KeyNotFoundError):
        store.get(b"ghost")


def test_overwrite(rig):
    _, store = rig
    store.put(b"k", b"v1")
    store.put(b"k", b"v2")
    assert store.get(b"k") == b"v2"


def test_delete_and_exists(rig):
    _, store = rig
    store.put(b"k", b"v")
    assert store.exists(b"k")
    store.delete(b"k")
    assert not store.exists(b"k")
    with pytest.raises(KeyNotFoundError):
        store.delete(b"k")


def test_empty_value(rig):
    _, store = rig
    store.put(b"k", b"")
    assert store.get(b"k") == b""


def test_key_limits(rig):
    """A key the command set cannot carry is refused before submission:
    a DriverError (a ValueError), not the device-status KvError."""
    _, store = rig
    with pytest.raises(DriverError):
        store.get(b"x" * 17)
    with pytest.raises(DriverError):
        store.put(b"", b"v")
    with pytest.raises(DriverError):
        store.put(b"k" * 17, b"v")


def test_value_larger_than_read_buffer(rig):
    _, store = rig
    store.put(b"big", b"v" * 5000)
    with pytest.raises(KvError):
        store.get(b"big", max_value_len=4096)
    assert store.get(b"big", max_value_len=8192) == b"v" * 5000


def test_read_return_into_no_buffer_fails_only_that_command(rig):
    """A zero-length read names no host buffer (PRP1 = 0): the value's
    return fails with a data transfer error instead of escaping the
    firmware loop, and the queue keeps serving later commands."""
    tb, store = rig
    store.put(b"k", b"v" * 10)
    errors = tb.ssd.controller.fetch_errors
    with pytest.raises(KvError, match="status 0x4"):
        store.get(b"k", max_value_len=0)
    assert tb.ssd.controller.fetch_errors == errors + 1
    assert store.get(b"k") == b"v" * 10


def test_read_return_stops_at_the_host_buffer(kv_tb):
    """A RETRIEVE whose value outgrows its 4 KiB buffer must not DMA the
    rest into the next host page.  Here that page is the private buffer
    of a PRP STORE queued behind the read: an overrun corrupts the STORE
    payload before the device fetches it, and the STORE fails."""
    engine = kv_tb.make_engine(queues=1, qd=8)
    value = bytes(range(256)) * 23 + b"\x5a" * 112  # 6,000 B
    put = engine.submit(encode_store_payload(b"big", value), "prp",
                        opcode=KvOpcode.STORE)
    engine.drain()
    assert put.ok
    mptr, cdw10, cdw11, cdw14 = key_field_words(b"big")
    get = engine.submit_read(4096, KvOpcode.RETRIEVE, cdw10=cdw10,
                             cdw11=cdw11, mptr=mptr, cdw14=cdw14)
    store = engine.submit(encode_store_payload(b"next", b"n" * 100), "prp",
                          opcode=KvOpcode.STORE)
    engine.drain()
    assert get.ok and get.cqe.result == len(value)
    assert get.data == value[:4096]
    assert store.ok, store.status
    assert kv_tb.personality.peek(b"next") == b"n" * 100


@pytest.mark.parametrize("opcode", [KvOpcode.STORE,
                                    VendorOpcode.KV_BATCH_STORE],
                         ids=["store", "batch_store"])
def test_a_value_no_log_segment_holds_is_an_invalid_field(kv_tb, opcode):
    """An entry larger than a value-log segment is a bad request, not a
    media fault: it completes with INVALID_FIELD, alone or in a batch,
    and nothing is stored.  A batch is all-or-nothing: the pair ahead of
    the oversized one is refused with it, and the CQE counts zero."""
    huge = b"h" * (kv_tb.personality.vlog.segment_bytes + 1)
    payload = (encode_store_payload(b"huge", huge)
               if opcode == KvOpcode.STORE else
               encode_batch_payload([(b"small", b"s"), (b"huge", huge)]))
    engine = kv_tb.make_engine(queues=1, qd=1)
    put = engine.submit(payload, "prp", opcode=opcode)
    engine.drain()
    assert put.status == StatusCode.INVALID_FIELD
    assert put.cqe.result == 0
    assert kv_tb.personality.peek(b"huge") is None
    assert kv_tb.personality.peek(b"small") is None


def test_put_returns_transfer_stats(rig):
    _, store = rig
    stats = store.put(b"k", b"v" * 100)
    assert stats.ok
    assert stats.payload_len > 100  # key + header + value


def test_every_method_functionally_identical(kv_tb):
    for method in ("prp", "sgl", "byteexpress", "bandslim", "hybrid"):
        store = KVStore(kv_tb.driver, kv_tb.method(method))
        key = f"m:{method}".encode().ljust(12, b"_")
        store.put(key, method.encode() * 10)
        assert store.get(key) == method.encode() * 10


def test_mixgraph_workload_durable(kv_tb):
    store = KVStore(kv_tb.driver, kv_tb.method("byteexpress"))
    latest = {}
    for op in MixGraphWorkload(ops=300, seed=11, key_space=100):
        store.put(op.key, op.value)
        latest[op.key] = op.value
    personality = kv_tb.personality
    assert personality.puts == 300
    for key, value in latest.items():
        assert store.get(key, max_value_len=65536) == value


def test_lsm_machinery_exercised_under_load(kv_tb):
    store = KVStore(kv_tb.driver, kv_tb.method("byteexpress"))
    for op in FillRandomWorkload(ops=400, value_size=64, seed=5,
                                 key_space=150):
        store.put(op.key, op.value)
    personality = kv_tb.personality
    assert personality.index.flushes > 0
    assert personality.vlog.appends == 400


def test_device_scan_matches_puts(kv_tb):
    store = KVStore(kv_tb.driver, kv_tb.method("byteexpress"))
    for i in range(20):
        store.put(f"scan{i:03d}".encode(), f"value{i}".encode())
    got = list(kv_tb.personality.scan(b"scan005", b"scan015"))
    assert [k for k, _ in got] == [f"scan{i:03d}".encode()
                                   for i in range(5, 15)]
    assert got[0][1] == b"value5"


def test_nand_sees_traffic_with_large_stream(kv_tb):
    store = KVStore(kv_tb.driver, kv_tb.method("prp"))
    for op in FillRandomWorkload(ops=300, value_size=256, seed=9):
        store.put(op.key, op.value)
    assert kv_tb.ssd.nand.programs > 0  # value-log segments flushed


def test_the_value_log_stops_at_the_index_lpn_window():
    """Log segment n lives at LPN n and the LSM index's tables start at
    half the logical space.  A log that reaches that LPN refuses further
    STOREs with CAPACITY_EXCEEDED instead of flushing onto a page the
    index's table writes remap, and every acknowledged value reads
    back."""
    tb = make_kv_testbed(memtable_entries=8)
    kv = tb.personality
    kv.vlog._segment = kv.index.lpn_base - 1
    store = KVStore(tb.driver, tb.method("byteexpress"))
    acked = {}
    for i in range(40):
        key, value = b"lpn-%04d" % i, bytes([i]) * 1500
        try:
            store.put(key, value)
        except KvError as exc:
            assert "status 0x81" in str(exc)
        else:
            acked[key] = value
    assert 0 < len(acked) < 40
    # A STORE refused at the last slot changes nothing, as a refused
    # batch does: the last slot is still the active segment.  Fill its
    # room (6 B entry header) so no entry fits anywhere.
    assert kv.vlog._segment == kv.index.lpn_base - 1
    room = kv.vlog.segment_bytes - kv.vlog.active_bytes
    acked[b"fill"] = b"f" * (room - 6 - len(b"fill"))
    store.put(b"fill", acked[b"fill"])
    for key, value in acked.items():
        assert store.get(key) == value
    # A full log refuses a batch whole, and a DELETE whose durable
    # tombstone has no room leaves the key in place.
    with pytest.raises(KvError, match="status 0x81"):
        store.put_batch([(b"batch-a", b"a"), (b"batch-b", b"b")])
    assert kv.peek(b"batch-a") is None
    with pytest.raises(KvError, match="status 0x81"):
        store.delete(b"lpn-0000")
    assert store.get(b"lpn-0000") == acked[b"lpn-0000"]


def test_gc_that_relocates_into_a_full_log_stops_the_pass():
    """A GC pass whose relocations reach the end of the log's LPN window
    stops instead of escaping the firmware loop, and every acknowledged
    value still reads back."""
    tb = make_kv_testbed()
    kv = tb.personality
    kv.vlog._segment = kv.index.lpn_base - 6
    kv.gc_threshold_bytes = kv.vlog.segment_bytes // 2
    store = KVStore(tb.driver, tb.method("byteexpress"))
    acked = {}
    for round_ in range(20):
        for i in range(40):
            key, value = b"full-%03d" % i, bytes([round_]) * 1500
            try:
                store.put(key, value)
            except KvError:
                pass
            else:
                acked[key] = value
    assert kv.vlog.gc_runs > 0
    for key, value in acked.items():
        assert store.get(key) == value


def test_a_store_after_a_failed_flush_succeeds():
    """A failed segment program fails only its own STORE: the die it
    hit takes the next flush (one die, so every flush lands there)."""
    timing = replace(TimingModel(), nand_channels=1, nand_ways=1)
    tb = make_kv_testbed(config=SimConfig(timing=timing))
    store = KVStore(tb.driver, tb.method("byteexpress"))
    value = b"v" * 3000
    store.put(b"k0", value)
    tb.ssd.nand.inject_program_failures(0, 1)
    failed = []
    for i in range(1, 12):  # enough to fill and flush several segments
        try:
            store.put(b"k%d" % i, value)
        except KvError:
            failed.append(i)
    assert len(failed) == 1
    tb.personality.vlog.flush()
    for i in range(12):
        if i not in failed:
            assert store.get(b"k%d" % i) == value
