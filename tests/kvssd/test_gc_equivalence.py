"""Value-log GC equivalence: a pinned churn run.

GC decides liveness for a whole victim segment with one batched index
query.  This churn overwrites a key twice inside one segment and deletes
then re-puts a key inside one segment, with a GC threshold small enough
that nearly every command collects.  The counters below are the values
a per-entry ``LsmIndex.get`` liveness test produced on the same run;
any drift in which entries GC relocates moves at least one of them.
"""

import pytest

from repro.kvssd import KeyNotFoundError, KVStore
from repro.testbed import make_kv_testbed

#: (gc_relocated, appends, gc_runs, nand programs, nand reads)
PINNED = (270, 450, 37, 85, 37)


def _key(i: int) -> bytes:
    return b"gc-equiv-%07d" % i


def _value(i: int, round_: int) -> bytes:
    size = 700 + (i * 131 + round_ * 17) % 1800
    return bytes([(i + round_) % 251]) * size


def _churn():
    tb = make_kv_testbed(memtable_entries=8)
    kv = tb.personality
    kv.gc_threshold_bytes = kv.vlog.segment_bytes // 2
    store = KVStore(tb.driver, tb.method("byteexpress"))
    model = {}
    for round_ in range(6):
        for i in range(24):
            store.put(_key(i), _value(i, round_))
            model[_key(i)] = _value(i, round_)
        # Two overwrites of one key back to back: same segment.
        hot = _key(round_ % 24)
        for extra in (1, 2):
            store.put(hot, _value(100 + extra, round_))
        model[hot] = _value(102, round_)
        # Delete then re-put one key inside one segment.
        phoenix = _key((round_ * 5 + 3) % 24)
        store.delete(phoenix)
        store.put(phoenix, _value(200, round_))
        model[phoenix] = _value(200, round_)
        # One delete that stays deleted, carried as a durable tombstone.
        gone = _key(24 + round_)
        store.put(gone, _value(300, round_))
        store.delete(gone)
        model[gone] = None
    return tb, kv, store, model


def test_gc_churn_counters_are_pinned():
    tb, kv, _store, _model = _churn()
    got = (kv.vlog.gc_relocated, kv.vlog.appends, kv.vlog.gc_runs,
           tb.ssd.nand.programs, tb.ssd.nand.reads)
    assert got == PINNED


def test_gc_churn_preserves_every_value():
    _tb, kv, store, model = _churn()
    assert kv.vlog.gc_runs > 0
    for key, value in model.items():
        if value is None:
            with pytest.raises(KeyNotFoundError):
                store.get(key, max_value_len=4096)
            assert kv.peek(key) is None
        else:
            assert store.get(key, max_value_len=4096) == value
            assert kv.peek(key) == value
