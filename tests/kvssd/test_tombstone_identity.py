"""Tombstones are recognised by identity (``ptr is TOMBSTONE``).

Every path that rebuilds index entries must therefore hand back the
singleton itself, not an equal copy: a deleted key must still read None
and stay out of scans after each of them.
"""

from repro.kvssd import KVStore
from repro.kvssd.lsm import TOMBSTONE, LsmIndex
from repro.kvssd.value_log import LogPointer
from repro.sim.clock import SimClock
from repro.sim.config import TimingModel
from repro.ssd.ftl import PageMappingFtl
from repro.ssd.nand import NandArray, NandGeometry
from repro.testbed import make_kv_testbed


def _index(memtable_entries=4):
    nand = NandArray(SimClock(), TimingModel(),
                     NandGeometry(channels=2, ways=2, blocks_per_die=32,
                                  pages_per_block=32, page_bytes=2048))
    ftl = PageMappingFtl(nand)
    return LsmIndex(ftl, lpn_base=ftl.logical_capacity_pages // 2,
                    memtable_entries=memtable_entries)


def _ptr(n):
    return LogPointer(segment=n, offset=n * 8, length=8)


def _assert_deleted(idx, key):
    assert idx.get(key) is None
    assert idx.get_many([key]) == [None]
    assert key not in [k for k, _p in idx.scan(b"\x00")]


def test_compaction_into_a_non_last_level_keeps_tombstones():
    idx = _index(memtable_entries=2)
    for i in range(48):
        idx.put(b"k%02d" % i, _ptr(i + 1))
    assert len(idx.levels) >= 3, "no deep level to shadow; add more keys"
    deepest = len(idx.levels) - 1
    assert b"k00" in idx.levels[deepest][0].keys
    idx.delete(b"k00")
    compactions = idx.compactions
    for i in range(10):         # push the tombstone out of L0
        idx.put(b"z%02d" % i, _ptr(100 + i))
    assert idx.compactions > compactions
    held = [t for level in idx.levels[1:deepest] for t in level
            if b"k00" in t.keys]
    assert held, "tombstone did not land in a non-last level"
    assert held[0].get(b"k00") is TOMBSTONE
    _assert_deleted(idx, b"k00")


def test_recover_replay_keeps_deletes():
    tb = make_kv_testbed(memtable_entries=4)
    kv = tb.personality
    kv.gc_threshold_bytes = kv.vlog.segment_bytes
    store = KVStore(tb.driver, tb.method("byteexpress"))
    for i in range(12):
        store.put(b"recover-key-%04d" % i, b"v" * 2000)
    for i in (2, 7):
        store.delete(b"recover-key-%04d" % i)
    for round_ in range(12):      # churn so GC carries the tombstones
        store.put(b"recover-key-0000", bytes([round_]) * 3000)
    assert kv.vlog.gc_runs > 0
    kv.crash_and_recover()
    for i in (2, 7):
        _assert_deleted(kv.index, b"recover-key-%04d" % i)
        assert kv.peek(b"recover-key-%04d" % i) is None
    assert store.list_keys(b"recover") == [
        b"recover-key-%04d" % i for i in range(12) if i not in (2, 7)]
