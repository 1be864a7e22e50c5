"""One KV write path: STORE, batch STORE and DELETE apply all or nothing.

A write command that did not complete must not become visible.  A NAND
program failure part-way through a command leaves none of its entries
readable and completes MEDIA_WRITE_FAULT (0x80); a program failure the
firmware can absorb (an index SSTable, a GC relocation) fails no command
at all.  No media error leaves the firmware as anything but a status.
"""

from dataclasses import replace

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

import repro.kvssd.kvssd as kvssd_module
from repro.kvssd import KeyNotFoundError, KvError, KVStore
from repro.sim.config import SimConfig, TimingModel
from repro.testbed import make_kv_testbed


def _one_die_rig(**kwargs):
    """A KV rig whose every NAND program lands on die 0."""
    timing = replace(TimingModel(), nand_channels=1, nand_ways=1)
    tb = make_kv_testbed(config=SimConfig(timing=timing), **kwargs)
    return tb, KVStore(tb.driver, tb.method("byteexpress"))


def test_a_failed_batch_leaves_none_of_its_pairs_readable():
    """The batch's first pair fits the active segment; its second needs
    a flush, and the flush's program fails."""
    tb = make_kv_testbed()
    kv = tb.personality
    store = KVStore(tb.driver, tb.method("byteexpress"))
    store.put(b"a", b"old")
    store.put(b"big", b"x" * 14 * 1024)
    for die in range(tb.ssd.nand.geometry.dies):
        tb.ssd.nand.inject_program_failures(die, 1)
    with pytest.raises(KvError, match="status 0x80"):
        store.put_batch([(b"a", b"n" * 100), (b"b", b"m" * 3000)])
    assert kv.peek(b"a") == b"old"
    assert kv.peek(b"b") is None
    assert kv.puts == 2


def test_a_failed_delete_keeps_the_key():
    """A DELETE whose tombstone needs a flush that fails completes 0x80
    and leaves the key readable; the retry deletes it."""
    tb, store = _one_die_rig()
    kv = tb.personality
    store.put(b"k", b"v")
    store.put(b"big", b"x" * 14 * 1024)
    room = kv.vlog.segment_bytes - kv.vlog.active_bytes
    store.put(b"fill", b"f" * (room - 3 - 6 - len(b"fill")))
    assert kv.vlog.segment_bytes - kv.vlog.active_bytes == 3
    tb.ssd.nand.inject_program_failures(0, 1)
    with pytest.raises(KvError, match="status 0x80"):
        store.delete(b"k")
    assert store.get(b"k") == b"v"
    assert kv.deletes == 0
    store.delete(b"k")
    assert kv.peek(b"k") is None
    assert kv.crash_and_recover() == 2  # big, fill


def test_a_failed_sstable_program_loses_no_key():
    """The index keeps a memtable whose flush failed and retries the
    flush on the next put, into the same LPN; the STORE succeeds."""
    tb, store = _one_die_rig(memtable_entries=4)
    index = tb.personality.index
    for key in (b"a", b"b", b"c"):
        store.put(key, key * 10)
    tb.ssd.nand.inject_program_failures(0, 1)
    store.put(b"d", b"d" * 10)  # fills the memtable: its flush fails
    assert (index.flushes, index.memtable_size) == (0, 4)
    store.put(b"e", b"e" * 10)  # the retry lands
    assert (index.flushes, index.memtable_size) == (1, 0)
    (table,) = index.levels[0]
    assert table.keys == [b"a", b"b", b"c", b"d", b"e"]
    assert table.lpns == [index.lpn_base]
    assert tb.ssd.ftl.peek(index.lpn_base)  # programmed, not trimmed
    for key in (b"a", b"b", b"c", b"d", b"e"):
        assert store.get(key) == key * 10


def test_gc_stops_on_a_failed_relocation(monkeypatch):
    """A program failure in a GC pass's relocation flush ends the pass,
    as a full log does; the STORE that started it still succeeds."""
    monkeypatch.setattr(kvssd_module, "GC_DEAD_RATIO", 0)
    tb, store = _one_die_rig()
    kv = tb.personality
    kv.gc_threshold_bytes = 1
    collect, armed = kv.vlog.collect, []

    def collect_with_one_failure(*args):
        if not armed:
            armed.append(True)
            tb.ssd.nand.inject_program_failures(0, 1)
        return collect(*args)

    monkeypatch.setattr(kv.vlog, "collect", collect_with_one_failure)
    latest = {}
    for i in range(8):
        key = b"k%d" % (i % 3)
        latest[key] = bytes([i]) * 6000
        store.put(key, latest[key])
    assert armed and kv.vlog.gc_runs > 0
    for key, value in latest.items():
        assert store.get(key, max_value_len=6000) == value


_KEYS = st.sampled_from([b"k0", b"k1", b"k2", b"k3", b"k4"])
_VALUES = st.one_of(st.binary(max_size=8), st.integers(1, 6000).map(
    lambda n: bytes([n % 251]) * n))


class AllOrNothing(RuleBasedStateMachine):
    """``KVStore`` on a one-die rig against a dict: every write command
    applies whole, or fails with 0x80/0x81 and changes nothing."""

    def __init__(self):
        super().__init__()
        self.tb, self.store = _one_die_rig(memtable_entries=4)
        self.kv = self.tb.personality
        self.kv.gc_threshold_bytes = self.kv.vlog.segment_bytes
        self.model = {}

    def _write(self, call, *args):
        """Run one write command: True when it applied, False when the
        device failed it with a media or capacity status."""
        try:
            call(*args)
        except KeyNotFoundError:
            raise
        except KvError as exc:
            assert "status 0x80" in str(exc) or "status 0x81" in str(exc)
            return False
        return True

    @rule(key=_KEYS, value=_VALUES)
    def put(self, key, value):
        if self._write(self.store.put, key, value):
            self.model[key] = value

    @rule(pairs=st.lists(st.tuples(_KEYS, _VALUES), min_size=1, max_size=6))
    def put_batch(self, pairs):
        if self._write(self.store.put_batch, pairs):
            self.model.update(pairs)

    @rule(key=_KEYS)
    def delete(self, key):
        try:
            applied = self._write(self.store.delete, key)
        except KeyNotFoundError:
            assert key not in self.model
        else:
            if applied:
                del self.model[key]

    @rule(key=_KEYS)
    def get(self, key):
        try:
            assert self.store.get(key, max_value_len=6000) == self.model[key]
        except KeyNotFoundError:
            assert key not in self.model

    @rule(count=st.integers(1, 3))
    def arm_program_failures(self, count):
        self.tb.ssd.nand.inject_program_failures(0, count)

    @invariant()
    def every_model_key_reads_back(self):
        for key in (b"k0", b"k1", b"k2", b"k3", b"k4"):
            assert self.kv.peek(key) == self.model.get(key)


TestAllOrNothing = AllOrNothing.TestCase
TestAllOrNothing.settings = settings(max_examples=40, stateful_step_count=25,
                                     deadline=None)
