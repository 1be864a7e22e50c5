"""KV LIST opcode and value-log garbage collection."""

import pytest

from repro.kvssd import KVStore
from repro.kvssd.commands import KvEncodingError, decode_key_list
from repro.testbed import make_kv_testbed


@pytest.fixture
def rig(kv_tb):
    return kv_tb, KVStore(kv_tb.driver, kv_tb.method("byteexpress"))


class TestList:
    def test_lists_keys_in_order(self, rig):
        _, store = rig
        for i in (3, 1, 2):
            store.put(f"list{i:02d}".encode(), b"v")
        assert store.list_keys(b"list") == [b"list01", b"list02", b"list03"]

    def test_start_key_bound(self, rig):
        _, store = rig
        for i in range(5):
            store.put(f"k{i}".encode(), b"v")
        assert store.list_keys(b"k2") == [b"k2", b"k3", b"k4"]

    def test_max_keys_bound(self, rig):
        _, store = rig
        for i in range(10):
            store.put(f"m{i}".encode(), b"v")
        assert len(store.list_keys(b"m", max_keys=4)) == 4

    def test_excludes_deleted(self, rig):
        _, store = rig
        store.put(b"d1", b"v")
        store.put(b"d2", b"v")
        store.delete(b"d1")
        assert store.list_keys(b"d") == [b"d2"]

    def test_empty_store(self, rig):
        _, store = rig
        assert store.list_keys(b"\x01") == []

    def test_decode_rejects_truncation(self):
        with pytest.raises(KvEncodingError):
            decode_key_list(b"\x02")
        with pytest.raises(KvEncodingError):
            decode_key_list((2).to_bytes(4, "little") + b"\x05\x00ab")


class TestValueLogGc:
    def _rig(self):
        tb = make_kv_testbed(memtable_entries=512)
        kv = tb.personality
        kv.vlog.segment_bytes  # default 16 KiB
        store = KVStore(tb.driver, tb.method("byteexpress"))
        return tb, kv, store

    def test_overwrites_create_dead_space(self):
        tb, kv, store = self._rig()
        value = b"v" * 2000
        for round_ in range(10):
            store.put(b"hotkey-000000001", value)
        assert kv.vlog.dead_bytes > 0 or kv.vlog.gc_runs > 0

    def test_gc_reclaims_and_preserves_data(self):
        tb, kv, store = self._rig()
        kv.gc_threshold_bytes = kv.vlog.segment_bytes  # eager GC
        value = b"x" * 3000
        # Churn one hot key while keeping cold keys live across segments.
        for i in range(8):
            store.put(f"cold{i:012d}".encode(), f"coldval{i}".encode())
        for round_ in range(40):
            store.put(b"hotkey-000000001", value + bytes([round_]))
        assert kv.vlog.gc_runs > 0
        # All cold keys survived relocation.
        for i in range(8):
            assert store.get(f"cold{i:012d}".encode()) == \
                f"coldval{i}".encode()
        assert store.get(b"hotkey-000000001", max_value_len=8192)[-1] == 39

    def test_gc_relocates_only_live_entries(self):
        tb, kv, store = self._rig()
        kv.gc_threshold_bytes = kv.vlog.segment_bytes
        big = b"y" * 5000
        for i in range(20):
            store.put(b"churn-key-000001", big + bytes([i]))
        # Relocations should be far fewer than appends: dead entries skipped.
        assert kv.vlog.gc_relocated < kv.vlog.appends / 2

    def test_collect_noop_without_garbage(self):
        tb, kv, store = self._rig()
        store.put(b"only-key-0000001", b"v")
        assert not kv.vlog.collect(kv.index.get_many, kv.index.put)

    def test_deletes_feed_gc(self):
        tb, kv, store = self._rig()
        kv.gc_threshold_bytes = kv.vlog.segment_bytes
        for i in range(12):
            store.put(f"del{i:013d}".encode(), b"z" * 3000)
        for i in range(12):
            store.delete(f"del{i:013d}".encode())
        kv.maybe_collect()
        assert kv.vlog.gc_runs > 0
