"""LSM index: get-after-put, tombstones, flush/compaction, scans."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvssd.lsm import LsmIndex, SsTable
from repro.kvssd.value_log import LogPointer
from repro.sim.clock import SimClock
from repro.sim.config import TimingModel
from repro.ssd.ftl import FtlError, PageMappingFtl
from repro.ssd.nand import NandArray, NandError, NandGeometry


def _index(memtable_entries=4, channels=2):
    nand = NandArray(SimClock(), TimingModel(),
                     NandGeometry(channels=channels, ways=2, blocks_per_die=32,
                                  pages_per_block=32, page_bytes=2048))
    ftl = PageMappingFtl(nand)
    return LsmIndex(ftl, lpn_base=ftl.logical_capacity_pages // 2,
                    memtable_entries=memtable_entries)


def _ptr(n):
    return LogPointer(segment=n, offset=n * 8, length=8)


def test_put_get_from_memtable():
    idx = _index()
    idx.put(b"key", _ptr(1))
    assert idx.get(b"key") == _ptr(1)


def test_missing_key_is_none():
    assert _index().get(b"nope") is None


def test_overwrite_in_memtable():
    idx = _index()
    idx.put(b"k", _ptr(1))
    idx.put(b"k", _ptr(2))
    assert idx.get(b"k") == _ptr(2)


def test_flush_preserves_lookups():
    idx = _index(memtable_entries=4)
    for i in range(4):  # triggers a flush
        idx.put(f"key{i}".encode(), _ptr(i))
    assert idx.flushes == 1
    assert idx.memtable_size == 0
    for i in range(4):
        assert idx.get(f"key{i}".encode()) == _ptr(i)


def test_newer_table_wins_over_older():
    idx = _index(memtable_entries=2)
    idx.put(b"k1", _ptr(1))
    idx.put(b"k2", _ptr(2))   # flush 1: k1 -> 1
    idx.put(b"k1", _ptr(9))
    idx.put(b"k3", _ptr(3))   # flush 2: k1 -> 9
    assert idx.get(b"k1") == _ptr(9)


def test_compaction_triggered_and_correct():
    idx = _index(memtable_entries=2)
    for i in range(24):
        idx.put(f"key{i:03d}".encode(), _ptr(i))
    assert idx.compactions > 0
    for i in range(24):
        assert idx.get(f"key{i:03d}".encode()) == _ptr(i)


def test_delete_via_tombstone():
    idx = _index(memtable_entries=2)
    idx.put(b"k1", _ptr(1))
    idx.put(b"kx", _ptr(0))  # flush
    idx.delete(b"k1")
    idx.put(b"ky", _ptr(0))  # flush the tombstone
    assert idx.get(b"k1") is None


def test_scan_merged_and_sorted():
    idx = _index(memtable_entries=3)
    keys = [b"a", b"c", b"e", b"b", b"d"]
    for i, k in enumerate(keys):
        idx.put(k, _ptr(i))
    result = list(idx.scan(b"a", b"e"))
    assert [k for k, _ in result] == [b"a", b"b", b"c", b"d"]


def test_scan_excludes_tombstones():
    idx = _index(memtable_entries=100)
    idx.put(b"a", _ptr(1))
    idx.put(b"b", _ptr(2))
    idx.delete(b"a")
    assert [k for k, _ in idx.scan(b"a", b"z")] == [b"b"]


def test_scan_empty_range():
    idx = _index()
    idx.put(b"m", _ptr(1))
    assert list(idx.scan(b"x", b"a")) == []


def test_sstable_requires_sorted_entries():
    with pytest.raises(ValueError):
        SsTable(entries=[(b"b", _ptr(1)), (b"a", _ptr(2))])


def test_sstable_binary_search():
    table = SsTable(entries=[(bytes([i]), _ptr(i)) for i in range(0, 50, 2)])
    assert table.get(bytes([10])) == _ptr(10)
    assert table.get(bytes([11])) is None


def test_empty_key_rejected():
    with pytest.raises(ValueError):
        _index().put(b"", _ptr(1))


@given(st.lists(st.tuples(st.binary(min_size=1, max_size=8),
                          st.integers(0, 1000)),
                min_size=1, max_size=120))
@settings(max_examples=40, deadline=None)
def test_model_equivalence(ops):
    """Property: the LSM agrees with a plain dict under put churn."""
    idx = _index(memtable_entries=5)
    model = {}
    for key, n in ops:
        idx.put(key, _ptr(n))
        model[key] = _ptr(n)
    for key, expected in model.items():
        assert idx.get(key) == expected


@given(st.lists(st.tuples(st.booleans(), st.binary(min_size=1, max_size=4)),
                min_size=1, max_size=80))
@settings(max_examples=40, deadline=None)
def test_model_equivalence_with_deletes(ops):
    idx = _index(memtable_entries=4)
    model = {}
    for is_put, key in ops:
        if is_put:
            idx.put(key, _ptr(len(model)))
            model[key] = True
        else:
            idx.delete(key)
            model.pop(key, None)
    for key in {k for _, k in ops}:
        assert (idx.get(key) is not None) == (key in model)


_SMALL_KEYS = st.integers(0, 20).map(lambda i: b"k%02d" % i)


@given(st.lists(st.tuples(st.sampled_from(["put", "delete"]), _SMALL_KEYS),
                min_size=1, max_size=150),
       st.lists(_SMALL_KEYS | st.binary(min_size=1, max_size=3), max_size=40))
@settings(max_examples=60, deadline=None)
def test_get_many_matches_get(ops, extra):
    """Property: the batched lookup GC uses answers exactly like get().

    A 4-entry memtable over 21 keys spreads every key's versions over
    the memtable, L0, cascaded levels and tombstones; the query repeats
    keys and asks for ones the index never saw.
    """
    idx = _index(memtable_entries=4)
    for n, (op, key) in enumerate(ops):
        if op == "put":
            idx.put(key, _ptr(n))
        else:
            idx.delete(key)
    keys = [k for _, k in ops] + extra + [k for _, k in ops[::3]]
    assert idx.get_many(keys) == [idx.get(k) for k in keys]


def test_get_many_spans_every_level():
    idx = _index(memtable_entries=2)
    for i in range(40):
        idx.put(b"k%02d" % i, _ptr(i))
    idx.delete(b"k05")
    idx.delete(b"k06")
    idx.put(b"k06", _ptr(99))
    assert any(idx.levels[lvl] for lvl in range(1, len(idx.levels)))
    keys = [b"k%02d" % i for i in range(45)] + [b"k07", b"k05", b"a", b"z"]
    got = idx.get_many(keys)
    assert got == [idx.get(k) for k in keys]
    assert got[5] is None and got[6] == _ptr(99) and got[44] is None


def test_a_failed_sstable_program_trims_its_pages_and_retries():
    """A memtable whose two-page table fails on its second page stays in
    DRAM, the first page is trimmed, and the next put's flush programs
    the same LPNs.  Pages go to dies 0 and 1 in turn; die 1 fails."""
    idx = _index(memtable_entries=120, channels=1)
    idx.ftl.nand.inject_program_failures(1, 1)
    for n in range(120):
        idx.put(b"key%05d" % n, _ptr(n))
    assert (idx.flushes, idx.memtable_size) == (0, 120)
    with pytest.raises(FtlError):
        idx.ftl.peek(idx.lpn_base)
    idx.put(b"key%05d" % 120, _ptr(120))
    assert (idx.flushes, idx.memtable_size) == (1, 0)
    (table,) = idx.levels[0]
    assert table.lpns == [idx.lpn_base, idx.lpn_base + 1]
    assert all(idx.get(b"key%05d" % n) == _ptr(n) for n in range(121))


def test_a_failed_compaction_keeps_both_levels():
    """A compaction whose merged run fails to program keeps its source
    tables; the retry merges them."""
    idx = _index(memtable_entries=1, channels=1)
    for n in range(3):
        idx.put(b"k%d" % n, _ptr(n))  # one L0 table each
    for die in range(2):
        idx.ftl.nand.inject_program_failures(die, 1)
    with pytest.raises(NandError):
        idx._compact(0)
    assert (len(idx.levels[0]), idx.compactions) == (3, 0)
    with pytest.raises(NandError):
        idx._compact(0)  # the other die's failure
    idx._compact(0)
    assert (idx.levels[0], idx.compactions) == ([], 1)
    assert [idx.get(b"k%d" % n) for n in range(3)] == [_ptr(n) for n in range(3)]
