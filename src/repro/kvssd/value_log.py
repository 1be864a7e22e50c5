"""Device-side value log.

KV-SSDs in the iLSM/PinK lineage separate keys from values: values are
appended to a log (the "designated buffer" the paper names as a ByteExpress
landing zone, §3.3.1), and the LSM index maps keys to log pointers.  The
log accumulates entries in a DRAM segment buffer and flushes full segments
to NAND through the FTL — which is what lets small PUTs complete at DRAM
speed while NAND programs pipeline in the background (Figure 6 runs with
NAND enabled).

Entry format: ``key_len u16 | value_len u32 | key | value``.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.ssd.dram import DeviceDram, DramRegion
from repro.ssd.ftl import PageMappingFtl

_ENTRY_HEADER = struct.Struct("<HI")
#: High bit of key_len marks a durable tombstone record.
_TOMBSTONE_FLAG = 0x8000
#: Maximum key length once the flag bit is reserved.
MAX_LOG_KEY = 0x7FFF


class LogFullError(RuntimeError):
    """The log reached the end of its LPN window: its next segment would
    land on a page another structure owns."""


class LogPointer(NamedTuple):
    """Location of one value-log entry."""

    segment: int      # log segment number (== logical page for flushed)
    offset: int       # byte offset within the segment
    length: int       # total entry length (header + key + value)


class ValueLog:
    """Append-only, segment-buffered value log.

    Segment *n* lives at logical page ``lpn_base + n``; segment numbers
    only grow, so the log refuses an entry (:class:`LogFullError`) once
    its next segment would reach *lpn_limit* (default: the end of the
    FTL's logical space).
    """

    def __init__(self, dram: DeviceDram, ftl: PageMappingFtl,
                 segment_bytes: Optional[int] = None,
                 lpn_base: int = 0, lpn_limit: Optional[int] = None) -> None:
        self.ftl = ftl
        self.segment_bytes = segment_bytes or ftl.nand.geometry.page_bytes
        self.lpn_base = lpn_base
        limit = ftl.logical_capacity_pages if lpn_limit is None else lpn_limit
        #: Segments the LPN window holds.
        self._max_segments = limit - lpn_base
        self._buffer: DramRegion = dram.carve("kv.value_log",
                                              self.segment_bytes)
        self._segment = 0
        self._offset = 0
        #: Flushed segments are reachable through the FTL; the active
        #: segment lives in the DRAM buffer.
        self._flushed: Dict[int, bool] = {}
        #: Per-segment live bytes (dead space is GC's target) and the
        #: number of bytes actually used before padding.
        self._live: Dict[int, int] = {}
        self._used: Dict[int, int] = {}
        #: Running totals of used and live bytes over flushed segments,
        #: so GC's trigger reads the log's garbage without a scan.
        self.flushed_used = 0
        self.flushed_live = 0
        self.appends = 0
        self.flushes = 0
        self.gc_runs = 0
        self.gc_relocated = 0

    # ------------------------------------------------------------------
    def entry_size(self, key: bytes, value: bytes,
                   tombstone: bool = False) -> int:
        """Bytes one entry takes in the log; raises ValueError for an
        entry the log can never hold."""
        if not key:
            raise ValueError("empty key")
        if len(key) > MAX_LOG_KEY:
            raise ValueError(f"key exceeds {MAX_LOG_KEY} bytes")
        if tombstone and value:
            raise ValueError("tombstones carry no value")
        size = _ENTRY_HEADER.size + len(key) + len(value)
        if size > self.segment_bytes:
            raise ValueError(
                f"entry of {size} B exceeds segment size {self.segment_bytes}")
        return size

    def check_batch(self, pairs: List[Tuple[bytes, bytes]]) -> None:
        """Raise what appending every pair would raise, before any of
        them is appended: ValueError for an entry the log can never
        hold, :class:`LogFullError` when the pairs outrun the window."""
        segment, offset = self._segment, self._offset
        seg_bytes = self.segment_bytes
        for key, value in pairs:
            size = self.entry_size(key, value)
            if offset + size > seg_bytes:
                segment += 1
                offset = 0
            offset += size
        if pairs and segment >= self._max_segments:
            raise LogFullError("batch outruns the value log's LPN window")

    def append(self, key: bytes, value: bytes,
               tombstone: bool = False) -> LogPointer:
        """Append one entry; flushes the active segment first if needed.

        *tombstone* writes a durable deletion record (empty value, flag
        bit set in the key length) so crash recovery replays deletes.
        """
        size = self.entry_size(key, value, tombstone)
        if self._offset + size > self.segment_bytes:
            self.flush()
        if self._segment >= self._max_segments:
            raise LogFullError(
                f"value log full at LPN {self.lpn_base + self._segment}")
        ptr = LogPointer(self._segment, self._offset, size)
        key_field = len(key) | (_TOMBSTONE_FLAG if tombstone else 0)
        record = _ENTRY_HEADER.pack(key_field, len(value)) + key + value
        self._buffer.write(self._offset, record)
        self._offset += size
        self._live[self._segment] = self._live.get(self._segment, 0) + size
        self.appends += 1
        return ptr

    def flush(self) -> None:
        """Persist the active segment to NAND (pipelined program)."""
        if self._offset == 0:
            return
        data = self._buffer.read(0, self._offset)
        self.ftl.write(self.lpn_base + self._segment, data)
        self._flushed[self._segment] = True
        self._used[self._segment] = self._offset
        self.flushed_used += self._offset
        self.flushed_live += self._live.get(self._segment, 0)
        self.flushes += 1
        self._segment += 1
        self._offset = 0

    def read(self, ptr: LogPointer,
             read_page: Optional[Callable[[int], bytes]] = None
             ) -> Tuple[bytes, bytes]:
        """Fetch (key, value) for a pointer, from DRAM or NAND.

        Flushed segments come through *read_page* (``ftl.read`` unless
        given), which blocks unless the caller deferred NAND reads.
        """
        if ptr.segment == self._segment and not self._flushed.get(ptr.segment):
            raw = self._buffer.read(ptr.offset, ptr.length)
        elif self._flushed.get(ptr.segment):
            page = (read_page or self.ftl.read)(self.lpn_base + ptr.segment)
            raw = page[ptr.offset:ptr.offset + ptr.length]
        else:
            raise KeyError(f"stale log pointer {ptr}")
        key_len, value_len = _ENTRY_HEADER.unpack_from(raw)
        key_len &= ~_TOMBSTONE_FLAG
        body = raw[_ENTRY_HEADER.size:]
        return body[:key_len], body[key_len:key_len + value_len]

    def peek(self, ptr: LogPointer) -> Tuple[bytes, bytes]:
        """Timing-free :meth:`read` for verification oracles: flushed
        segments come through the FTL/NAND ``peek`` chain, so the shadow
        read charges no simulated time and perturbs no counters."""
        return self.read(ptr, self.ftl.peek)

    @property
    def active_bytes(self) -> int:
        return self._offset

    @property
    def flushed_segments(self) -> Tuple[int, ...]:
        """Flushed (NAND-durable) segment numbers, in flush order."""
        return tuple(sorted(self._flushed))

    # ------------------------------------------------------------------
    # persistence (repro.durability)
    # ------------------------------------------------------------------
    # The log's *metadata* (segment counters, flushed map) and its active
    # DRAM buffer are DEVICE_VOLATILE; flushed segments live behind the
    # FTL in the persistent NAND domain.  The log registers as
    # *checkpointed*: real firmware journals this metadata alongside the
    # mapping table at flush boundaries.  The durable watermark after a
    # crash is exactly the flushed-segment set in the restored snapshot.

    def snapshot(self) -> object:
        return {
            "segment": self._segment,
            "offset": self._offset,
            "flushed": dict(self._flushed),
            "live": dict(self._live),
            "used": dict(self._used),
            "buffer": self._buffer.read(0, self.segment_bytes),
            "counters": (self.appends, self.flushes,
                         self.gc_runs, self.gc_relocated),
        }

    def restore(self, state: object) -> None:
        assert isinstance(state, dict)
        self._segment = state["segment"]
        self._offset = state["offset"]
        self._flushed = dict(state["flushed"])
        self._live = dict(state["live"])
        self._used = dict(state["used"])
        self.flushed_used = sum(self._used[seg] for seg in self._flushed)
        self.flushed_live = sum(self._live.get(seg, 0)
                                for seg in self._flushed)
        self._buffer.write(0, state["buffer"])
        (self.appends, self.flushes,
         self.gc_runs, self.gc_relocated) = state["counters"]

    def scrub(self) -> None:
        """Power cut: the active segment and all metadata vanish.

        The DRAM buffer region itself survives (same carve, zeroed) so
        the log keeps its identity across a controller reset instead of
        re-carving — which would raise on the duplicate region name.
        """
        self._segment = 0
        self._offset = 0
        self._flushed.clear()
        self._live.clear()
        self._used.clear()
        self.flushed_used = 0
        self.flushed_live = 0
        self._buffer.scrub()

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def mark_dead(self, ptr: LogPointer) -> None:
        """Account an entry as dead (overwritten or deleted)."""
        seg = ptr.segment
        old = self._live.get(seg, 0)
        live = max(0, old - ptr.length)
        self._live[seg] = live
        if seg in self._flushed:
            self.flushed_live -= old - live

    @property
    def dead_bytes(self) -> int:
        """Dead space across *flushed* segments (GC's reclaimable pool),
        from the running totals."""
        return self.flushed_used - self.flushed_live

    def parse_segment(
            self, segment: int
    ) -> List[Tuple[LogPointer, bytes, bytes, bool]]:
        """(ptr, key, value, is_tombstone) for each entry of a flushed segment.

        The page read blocks: GC and boot replay are firmware-internal
        and use the entries before they go on, so only host reads (in a
        command handler's :meth:`~repro.ssd.nand.NandArray.defer_reads`
        scope) overlap across dies.
        """
        page = self.ftl.read(self.lpn_base + segment)
        used = self._used[segment]
        offset = 0
        entries = []
        while offset + _ENTRY_HEADER.size <= used:
            key_field, value_len = _ENTRY_HEADER.unpack_from(page, offset)
            if key_field == 0:
                break
            is_tomb = bool(key_field & _TOMBSTONE_FLAG)
            key_len = key_field & ~_TOMBSTONE_FLAG
            size = _ENTRY_HEADER.size + key_len + value_len
            body = page[offset + _ENTRY_HEADER.size:offset + size]
            entries.append((LogPointer(segment, offset, size),
                            bytes(body[:key_len]), bytes(body[key_len:]), is_tomb))
            offset += size
        return entries

    def collect(
            self,
            current: Callable[[List[bytes]], List[Optional[LogPointer]]],
            on_relocate: Callable[[bytes, LogPointer], None],
    ) -> bool:
        """One GC pass: reclaim the flushed segment with the most garbage.

        *current(keys)* returns the index's pointer for every key in the
        victim (None when absent or deleted), asked once for the whole
        segment: relocating a key changes only that key's answer, and
        the index always points at a key's last append, so answers taken
        up front stay exact.  A value entry is live iff it is its key's
        current pointer; *on_relocate(key, new_ptr)* updates the index
        after it is re-appended.  A durable deletion record is carried
        forward iff its key is absent, since an older segment may still
        hold the key.  Returns False when nothing is worth collecting.
        """
        candidates = [seg for seg in self._flushed
                      if self._used.get(seg, 0) > self._live.get(seg, 0)]
        if not candidates:
            return False
        victim = max(candidates,
                     key=lambda s: self._used[s] - self._live.get(s, 0))
        entries = self.parse_segment(victim)
        pointers = current([key for _ptr, key, _value, _tomb in entries])
        for (old_ptr, key, value, is_tomb), ptr in zip(entries, pointers):
            if is_tomb:
                if ptr is None:
                    self.append(key, b"", tombstone=True)
                    self.gc_relocated += 1
                continue
            if ptr != old_ptr:
                continue
            on_relocate(key, self.append(key, value))
            self.gc_relocated += 1
        self.ftl.trim(self.lpn_base + victim)
        del self._flushed[victim]
        self.flushed_used -= self._used.pop(victim)
        self.flushed_live -= self._live.pop(victim, 0)
        self.gc_runs += 1
        return True
