"""LSM-tree key index for the KV-SSD.

An iLSM/PinK-style in-storage LSM tree mapping keys to value-log pointers:
a sorted memtable absorbs writes; full memtables flush to immutable,
sorted SSTables (written to NAND through the FTL, so flush/compaction
I/O is charged to the NAND model); L0 tables may overlap and are searched
newest-first; deeper levels are kept as one non-overlapping sorted run
each and are merged by whole-level compaction when the level above
overflows.  Following PinK, the key/pointer entries of every level are
pinned in device DRAM, bounding read tail latency — lookups never touch
NAND for index data, only for values.

Tombstones implement deletion; iterators (SYSTOR '23's extension) walk a
merged view of memtable + all levels.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.kvssd.value_log import LogPointer
from repro.ssd.ftl import PageMappingFtl
from repro.ssd.nand import NandError

#: On-NAND bytes of one index entry besides its key: key_len u16 |
#: tombstone u8 | segment u32 | offset u32 | length u32.
_ENTRY_BYTES = 15

#: Marker pointer stored for deletions.  Every test is ``is TOMBSTONE``:
#: flushes and compactions move references, so identity survives every
#: rebuild of the index.
TOMBSTONE = LogPointer(segment=0xFFFFFFFF, offset=0xFFFFFFFF, length=0)

#: L0 tables that trigger a compaction into L1.
L0_TABLES = 4
#: Size ratio between adjacent levels: level *n*'s run holds up to
#: ``memtable_entries * LEVEL_RATIO**n`` entries before it cascades.
LEVEL_RATIO = 4


@dataclass
class SsTable:
    """One immutable sorted run, pinned in DRAM, persisted to NAND pages.

    ``keys`` mirrors ``entries`` so lookups bisect a plain list of bytes.
    """

    entries: List[Tuple[bytes, LogPointer]]
    lpns: List[int] = field(default_factory=list)
    keys: List[bytes] = field(init=False, repr=False)
    min_key: bytes = field(init=False, repr=False)
    max_key: bytes = field(init=False, repr=False)

    def __post_init__(self) -> None:
        keys = [k for k, _ in self.entries]
        if keys != sorted(keys):
            raise ValueError("SSTable entries must be sorted")
        self.keys = keys
        self.min_key, self.max_key = (keys[0], keys[-1]) if keys else (b"", b"")

    def get(self, key: bytes) -> Optional[LogPointer]:
        keys = self.keys
        i = bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            return self.entries[i][1]
        return None


class LsmIndex:
    """The in-device LSM tree."""

    def __init__(self, ftl: PageMappingFtl, lpn_base: int,
                 memtable_entries: int = 4096) -> None:
        if memtable_entries < 1:
            raise ValueError("memtable must hold at least one entry")
        self.ftl = ftl
        self._zero_page = bytes(ftl.nand.geometry.page_bytes)
        self.lpn_base = lpn_base
        self.memtable_entries = memtable_entries
        self._memtable: Dict[bytes, LogPointer] = {}
        #: levels[0] is L0 (list of possibly-overlapping tables, newest
        #: last); levels[i>0] hold at most one sorted run each.
        self.levels: List[List[SsTable]] = [[]]
        self._next_lpn = lpn_base
        self.flushes = 0
        self.compactions = 0

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def put(self, key: bytes, ptr: LogPointer) -> None:
        """Map *key* to *ptr*.  Raises no media error: a failed SSTable
        program keeps the memtable, and the next put retries the flush
        (nothing reads index pages back; boot replays the value log)."""
        if not key:
            raise ValueError("empty key")
        self._memtable[key] = ptr
        if len(self._memtable) >= self.memtable_entries:
            try:
                self.flush_memtable()
            except NandError:
                pass

    def delete(self, key: bytes) -> None:
        self.put(key, TOMBSTONE)

    def flush_memtable(self) -> None:
        if not self._memtable:
            return
        table = self._persist(SsTable(sorted(self._memtable.items())))
        self._memtable.clear()
        self.levels[0].append(table)
        self.flushes += 1
        if len(self.levels[0]) > L0_TABLES:
            self._compact(0)

    def _persist(self, table: SsTable) -> SsTable:
        """Charge the table's on-NAND size to NAND pages via the FTL.

        Nothing reads the pages back (lookups bisect the DRAM-pinned
        entries, and recovery replays the value log), and NAND timing
        does not depend on page content, so every page is the same
        shared zero page.  A failed program trims the pages this table
        did program and re-raises, so a retry writes the same LPNs."""
        zero_page = self._zero_page
        size = _ENTRY_BYTES * len(table.keys) + sum(map(len, table.keys))
        start = self._next_lpn
        try:
            for _ in range(-(-size // len(zero_page))):
                self.ftl.write(self._next_lpn, zero_page)
                self._next_lpn += 1
        except NandError:
            for lpn in range(start, self._next_lpn):
                self.ftl.trim(lpn)
            self._next_lpn = start
            raise
        table.lpns.extend(range(start, self._next_lpn))
        return table

    def _compact(self, level: int) -> None:
        """Merge *level* into *level*+1 as one fresh sorted run; both
        levels keep their tables until the run is programmed."""
        while len(self.levels) <= level + 1:
            self.levels.append([])
        sources = self.levels[level] + self.levels[level + 1]
        merged: Dict[bytes, LogPointer] = {}
        # Oldest-first so newer tables overwrite older mappings; L0 is
        # ordered oldest→newest, deeper levels hold a single older run.
        for table in self.levels[level + 1] + self.levels[level]:
            merged.update(table.entries)
        for table in sources:
            for lpn in table.lpns:
                self.ftl.trim(lpn)
        is_last = (level + 1 == len(self.levels) - 1)
        entries = sorted(merged.items())
        if is_last:
            entries = [e for e in entries if e[1] is not TOMBSTONE]
        run = [self._persist(SsTable(entries))] if entries else []
        self.levels[level] = []
        self.levels[level + 1] = run
        self.compactions += 1
        # Cascade when the level run grows beyond the size ratio.
        limit = self.memtable_entries * (LEVEL_RATIO ** (level + 1))
        if run and len(run[0].entries) > limit:
            self._compact(level + 1)

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def get(self, key: bytes) -> Optional[LogPointer]:
        """Lookup; returns None for missing or deleted keys."""
        ptr = self._memtable.get(key)
        if ptr is None:
            for table in reversed(self.levels[0]):
                if table.min_key <= key <= table.max_key:
                    ptr = table.get(key)
                    if ptr is not None:
                        break
        if ptr is None:
            for level in self.levels[1:]:
                for table in level:
                    if table.min_key <= key <= table.max_key:
                        ptr = table.get(key)
                if ptr is not None:
                    break
        if ptr is None or ptr is TOMBSTONE:
            return None
        return ptr

    def get_many(self, keys: Sequence[bytes]) -> List[Optional[LogPointer]]:
        """:meth:`get` for many keys, answered in *keys* order.

        The keys are sorted once and each table is searched in one
        forward pass, newest first; a key stops at the first table
        holding it, the precedence :meth:`get` applies.
        """
        distinct = set(keys)
        found = {k: self._memtable[k] for k in distinct if k in self._memtable}
        pending = sorted(distinct.difference(found))
        for table in self._tables():
            tkeys, entries, i, missed = table.keys, table.entries, 0, []
            for key in pending:
                i = bisect_left(tkeys, key, i)
                if i < len(tkeys) and tkeys[i] == key:
                    found[key] = entries[i][1]
                else:
                    missed.append(key)
            pending = missed
        return [None if (ptr := found.get(k)) is TOMBSTONE else ptr for k in keys]

    def _tables(self) -> List[SsTable]:
        """Every table, newest first: the order lookups search them in."""
        return self.levels[0][::-1] + [t for level in self.levels[1:] for t in level]

    def scan(self, start: bytes,
             end: Optional[bytes] = None) -> Iterator[Tuple[bytes, LogPointer]]:
        """Merged in-order iteration over [start, end) (SYSTOR '23 API);
        ``end=None`` leaves the range unbounded above."""
        if end is not None and start >= end:
            return
        view: Dict[bytes, LogPointer] = {}
        for table in reversed(self._tables()):  # oldest first: newer wins
            lo = bisect_left(table.keys, start)
            hi = len(table.keys) if end is None else bisect_left(table.keys, end)
            view.update(table.entries[lo:hi])
        for key, ptr in self._memtable.items():
            if start <= key and (end is None or key < end):
                view[key] = ptr
        for key in sorted(view):
            ptr = view[key]
            if ptr is not TOMBSTONE:
                yield key, ptr

    # ------------------------------------------------------------------
    # persistence (repro.durability) — the memtable and the DRAM-pinned
    # level entries are DEVICE_VOLATILE: a power cut loses them all, and
    # recovery rebuilds the index by replaying the value log.
    # ------------------------------------------------------------------
    def scrub(self) -> None:
        """Drop every in-DRAM structure; the LPN window resets too.

        The index keeps its identity (ftl, lpn_base, tuning) so replay
        re-persists SSTables into the same logical window the stale
        pre-crash tables occupied — those were trimmed or are simply
        overwritten as replay flushes.
        """
        for level in self.levels:
            for table in level:
                for lpn in table.lpns:
                    self.ftl.trim(lpn)  # no-op when the FTL was scrubbed
        self._memtable = {}
        self.levels = [[]]
        self._next_lpn = self.lpn_base

    # ------------------------------------------------------------------
    @property
    def memtable_size(self) -> int:
        return len(self._memtable)
