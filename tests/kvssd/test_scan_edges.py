"""LsmIndex.scan edge cases: empty ranges, tombstone shadowing across
levels, and scans spanning a flush/compaction boundary (ISSUE 8
satellite).  The serving layer's ordered iterator pages over this scan
through LIST commands, so its corner behaviour is load-bearing."""

from repro.kvssd.lsm import TOMBSTONE, LsmIndex
from repro.kvssd.value_log import LogPointer
from repro.sim.clock import SimClock
from repro.sim.config import TimingModel
from repro.ssd.ftl import PageMappingFtl
from repro.ssd.nand import NandArray, NandGeometry


def _index(memtable_entries=4):
    nand = NandArray(SimClock(), TimingModel(),
                     NandGeometry(channels=2, ways=2, blocks_per_die=32,
                                  pages_per_block=32, page_bytes=2048))
    ftl = PageMappingFtl(nand)
    return LsmIndex(ftl, lpn_base=ftl.logical_capacity_pages // 2,
                    memtable_entries=memtable_entries)


def _ptr(n):
    return LogPointer(segment=n, offset=n * 8, length=8)


def _keys(idx, start, end):
    return [k for k, _p in idx.scan(start, end)]


# ----------------------------------------------------------------------
# empty ranges
# ----------------------------------------------------------------------

def test_scan_of_empty_index():
    assert _keys(_index(), b"a", b"z") == []


def test_scan_range_with_no_keys():
    idx = _index()
    idx.put(b"aaa", _ptr(1))
    idx.put(b"zzz", _ptr(2))
    assert _keys(idx, b"b", b"y") == []


def test_scan_inverted_range_is_empty():
    idx = _index()
    idx.put(b"m", _ptr(1))
    assert _keys(idx, b"z", b"a") == []


def test_scan_bounds_are_half_open():
    idx = _index()
    for k in (b"a", b"b", b"c"):
        idx.put(k, _ptr(1))
    # [start, end): start included, end excluded.
    assert _keys(idx, b"a", b"c") == [b"a", b"b"]
    assert _keys(idx, b"b", b"b") == []


# ----------------------------------------------------------------------
# tombstone shadowing across levels
# ----------------------------------------------------------------------

def test_memtable_tombstone_shadows_flushed_value():
    idx = _index(memtable_entries=4)
    idx.put(b"k", _ptr(1))
    idx.flush_memtable()  # value now lives in an SSTable
    idx.delete(b"k")  # tombstone only in the memtable
    assert _keys(idx, b"a", b"z") == []


def test_l0_tombstone_shadows_deeper_value():
    idx = _index(memtable_entries=4)
    idx.put(b"k", _ptr(1))
    idx.flush_memtable()
    idx.delete(b"k")
    idx.flush_memtable()  # tombstone now an SSTable entry above the value
    assert idx.get(b"k") is None
    assert _keys(idx, b"a", b"z") == []


def test_tombstone_does_not_shadow_neighbours():
    idx = _index(memtable_entries=8)
    for k in (b"a", b"b", b"c"):
        idx.put(k, _ptr(1))
    idx.flush_memtable()
    idx.delete(b"b")
    assert _keys(idx, b"a", b"z") == [b"a", b"c"]


def test_rewrite_after_tombstone_resurfaces_key():
    idx = _index(memtable_entries=4)
    idx.put(b"k", _ptr(1))
    idx.flush_memtable()
    idx.delete(b"k")
    idx.flush_memtable()
    idx.put(b"k", _ptr(2))  # newest wins over the flushed tombstone
    assert [(k, p) for k, p in idx.scan(b"a", b"z")] == [(b"k", _ptr(2))]


def test_scan_never_yields_tombstone_pointers():
    idx = _index(memtable_entries=16)
    for i in range(8):
        idx.put(b"k%d" % i, _ptr(i + 1))
    for i in range(0, 8, 2):
        idx.delete(b"k%d" % i)
    got = list(idx.scan(b"k0", b"k9"))
    assert [k for k, _p in got] == [b"k1", b"k3", b"k5", b"k7"]
    assert all(p != TOMBSTONE for _k, p in got)


# ----------------------------------------------------------------------
# scans spanning a flush/compaction boundary
# ----------------------------------------------------------------------

def test_scan_merges_memtable_l0_and_deep_levels():
    """Fill enough to cascade a compaction below L0, then verify one
    scan stitches memtable + L0 + deeper levels in key order."""
    idx = _index(memtable_entries=2)
    keys = [b"key%02d" % i for i in range(16)]
    for i, k in enumerate(keys):
        idx.put(k, _ptr(i + 1))  # repeated auto-flushes + compactions
    assert any(idx.levels[lvl] for lvl in range(1, len(idx.levels))), (
        "test did not reach a compacted level; shrink memtable_entries")
    assert _keys(idx, b"key00", b"key99") == keys


def test_scan_result_spans_compaction_with_overwrites():
    """Older versions buried by compaction never surface in a scan."""
    idx = _index(memtable_entries=2)
    for round_ in (1, 2, 3):
        for i in range(8):
            idx.put(b"k%d" % i, _ptr(round_ * 10 + i))
    got = dict(idx.scan(b"k0", b"k9"))
    assert got == {b"k%d" % i: _ptr(30 + i) for i in range(8)}


def test_scan_unaffected_by_explicit_flush_midstream():
    """A scan started after a flush sees the identical view: flushing
    moves entries between levels, it must not change the merge."""
    idx = _index(memtable_entries=64)
    for i in range(8):
        idx.put(b"m%d" % i, _ptr(i + 1))
    before = list(idx.scan(b"m0", b"m9"))
    idx.flush_memtable()
    assert list(idx.scan(b"m0", b"m9")) == before


# ----------------------------------------------------------------------
# unbounded scans
# ----------------------------------------------------------------------

def test_unbounded_scan_reaches_the_all_ones_key():
    """``end=None`` has no upper bound: a fake "largest key" such as
    16 x 0xff is itself a legal key and would hide it."""
    idx = _index(memtable_entries=4)
    top = b"\xff" * 16
    for i, k in enumerate((b"a", b"m", top, b"\xff" * 15)):
        idx.put(k, _ptr(i + 1))
    idx.flush_memtable()
    idx.put(b"\xff" * 17, _ptr(9))  # memtable key past the old fake bound
    assert _keys(idx, b"\x00", None) == [
        b"a", b"m", b"\xff" * 15, top, b"\xff" * 17]
    assert _keys(idx, b"n", None) == [b"\xff" * 15, top, b"\xff" * 17]
    assert [k for k, _p in idx.scan(b"\x00")] == _keys(idx, b"\x00", None)


def test_bounded_scan_slices_every_table():
    idx = _index(memtable_entries=3)
    keys = [b"k%02d" % i for i in range(30)]
    for i, k in enumerate(keys):
        idx.put(k, _ptr(i + 1))
    assert _keys(idx, b"k10", b"k20") == keys[10:20]
    assert _keys(idx, b"k295", None) == []
    assert _keys(idx, b"", b"k03") == keys[:3]
