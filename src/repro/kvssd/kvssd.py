"""KV-SSD device personality.

Implements the NVMe Key-Value command set on top of the OpenSSD model,
in the style of the iterator-extended LSM KV-SSD the paper evaluates on
(Figure 6): a value log absorbs PUT payloads (the ByteExpress landing
buffer), an LSM index maps keys to log pointers, and NAND I/O proceeds
pipelined underneath.

The personality is transfer-method agnostic: the payload reaches the
handler identically whether it travelled by PRP, SGL, BandSlim fragments,
MMIO or ByteExpress — which is precisely the compatibility property the
paper claims for ByteExpress.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.kvssd.commands import (
    KvEncodingError,
    decode_batch_payload,
    decode_store_payload,
    unpack_key_fields,
)
from repro.durability.domains import DEVICE_VOLATILE
from repro.kvssd.lsm import TOMBSTONE, LsmIndex
from repro.kvssd.value_log import LogFullError, ValueLog
from repro.nvme.constants import (
    STATUS_SUCCESS,
    KvOpcode,
    StatusCode,
    VendorOpcode,
)
from repro.ssd.controller import CommandContext, CommandResult
from repro.ssd.device import OpenSsd
from repro.ssd.nand import NandError

#: Logical-page range reserved for the value log (the LSM index gets the
#: upper half of the logical space).
VLOG_LPN_BASE = 0

#: Value-log GC runs only while at least this share of the flushed log
#: is garbage.  Greedy victim choice then always reclaims a segment at
#: least this dead, so each relocated byte frees at least
#: ``GC_DEAD_RATIO / (1 - GC_DEAD_RATIO)`` bytes; the price is that a log
#: past the absolute floor settles near ``1 / (1 - GC_DEAD_RATIO)`` space
#: amplification.  0.2 is the largest ratio of a kv_serving soak sweep
#: that kept the log within 1.3x.
GC_DEAD_RATIO = 0.2


class KvSsdPersonality:
    """Firmware handlers for STORE / RETRIEVE / DELETE / EXIST / LIST."""

    def __init__(self, ssd: OpenSsd,
                 memtable_entries: int = 4096) -> None:
        self.ssd = ssd
        lsm_base = ssd.ftl.logical_capacity_pages // 2
        self.vlog = ValueLog(ssd.dram, ssd.ftl, lpn_base=VLOG_LPN_BASE,
                             lpn_limit=lsm_base)
        self.index = LsmIndex(ssd.ftl, lpn_base=lsm_base,
                              memtable_entries=memtable_entries)
        ctl = ssd.controller
        ctl.register_handler(KvOpcode.STORE, self._on_store)
        ctl.register_handler(KvOpcode.RETRIEVE, self._on_retrieve,
                             data_phase=False)
        ctl.register_handler(KvOpcode.DELETE, self._on_delete,
                             data_phase=False)
        ctl.register_handler(KvOpcode.EXIST, self._on_exist,
                             data_phase=False)
        ctl.register_handler(KvOpcode.LIST, self._on_list, data_phase=False)
        ctl.register_handler(VendorOpcode.KV_BATCH_STORE, self._on_batch_store)
        # Persistence domains: the log's metadata checkpoints at flush
        # boundaries (its flushed-segment set *is* the durable
        # watermark); the DRAM-pinned index is rebuilt by replay.
        ssd.durability.register("kv.value_log", DEVICE_VOLATILE, self.vlog,
                                checkpointed=True)
        ssd.durability.register("kv.index", DEVICE_VOLATILE, self.index)
        #: Value-log GC needs at least this much dead space, whatever
        #: the garbage ratio (see :meth:`maybe_collect`).
        self.gc_threshold_bytes = 2 * self.vlog.segment_bytes
        self.puts = 0
        self.gets = 0
        self.deletes = 0
        self.lists = 0

    # ------------------------------------------------------------------
    def _on_store(self, ctx: CommandContext) -> CommandResult:
        if ctx.data is None:
            return CommandResult(StatusCode.INVALID_FIELD)
        try:
            key, value = decode_store_payload(ctx.data)
        except KvEncodingError:
            return CommandResult(StatusCode.INVALID_FIELD)
        if ctx.cmd.cdw14 and ctx.cmd.cdw14 != len(key):
            return CommandResult(StatusCode.INVALID_FIELD)
        return self._commit([(key, value)]) or CommandResult(result=len(value))

    def _on_batch_store(self, ctx: CommandContext) -> CommandResult:
        """Compound STORE (§2.2.1's bulk-PUT), all or nothing: a refused
        or failed batch leaves none of its pairs stored (:meth:`_commit`).
        The CQE's result is the number of pairs stored.

        Protocol overhead amortises over the batch, but the per-pair
        engine work (log append + index insert) remains — and the pairs
        share one durability point, which is exactly why the paper notes
        batching "may not always be applicable" for fine-grained
        persistence workloads.
        """
        if ctx.data is None:
            return CommandResult(StatusCode.INVALID_FIELD)
        try:
            pairs = decode_batch_payload(ctx.data)
        except KvEncodingError:
            return CommandResult(StatusCode.INVALID_FIELD)
        return self._commit(pairs) or CommandResult(result=len(pairs))

    def _commit(self, pairs: List[Tuple[bytes, bytes]],
                tombstone: bool = False) -> Optional[CommandResult]:
        """Apply one write command all or nothing: the pairs of a STORE
        or batch STORE, or a DELETE's durable *tombstone*.

        ``check_batch`` refuses the whole command up front; then each
        entry lands in the value log before the index points at it.  A
        NAND program failure part-way restores the command's index
        updates in reverse and leaves its appended entries dead.  Only a
        command that wrote every entry retires what it superseded and
        may start a GC pass.  Returns the failure's completion, or None.
        """
        vlog, index = self.vlog, self.index
        try:
            vlog.check_batch(pairs)
        except ValueError:
            # An entry the log can never hold (e.g. larger than a
            # segment): a bad request, not a media fault.
            return CommandResult(StatusCode.INVALID_FIELD)
        except LogFullError:
            return CommandResult(StatusCode.CAPACITY_EXCEEDED)
        self.ssd.clock.advance(
            self.ssd.config.timing.kv_put_logic_ns * len(pairs))
        applied = []
        try:
            for key, value in pairs:
                old = index.get(key)
                ptr = vlog.append(key, value, tombstone)
                index.put(key, TOMBSTONE if tombstone else ptr)
                applied.append((key, old, ptr))
        except NandError:
            for key, old, ptr in reversed(applied):
                index.put(key, TOMBSTONE if old is None else old)
                vlog.mark_dead(ptr)
            return CommandResult(StatusCode.MEDIA_WRITE_FAULT)
        for _key, old, ptr in applied:
            if old is not None:
                vlog.mark_dead(old)
            if tombstone:
                vlog.mark_dead(ptr)  # tombstones are dead space at once
        if tombstone:
            self.deletes += len(pairs)
        else:
            self.puts += len(pairs)
        self.maybe_collect()
        return None

    def maybe_collect(self) -> bool:
        """Run one value-log GC pass once the flushed log's garbage is
        both at least ``gc_threshold_bytes`` and at least
        :data:`GC_DEAD_RATIO` of its used bytes.

        An absolute trigger alone fires at a few percent garbage on a
        large log, so every pass would relocate a mostly live victim.
        A full log or a failed program cannot relocate: the pass stops
        and the victim stays, its relocated entries already re-pointed.
        """
        vlog = self.vlog
        dead = vlog.dead_bytes
        if (dead < self.gc_threshold_bytes
                or dead < GC_DEAD_RATIO * vlog.flushed_used):
            return False
        try:
            return vlog.collect(self.index.get_many, self.index.put)
        except (LogFullError, NandError):
            return False

    def _lookup(self, ctx: CommandContext) -> Tuple[Optional[bytes],
                                                    Optional[bytes], float]:
        """(key, value, ready time) for a host read of the key in *ctx*.

        A value in a flushed segment is read from NAND without waiting
        for the die: the ready time says when the read finishes, and the
        controller parks the command until then (0.0: nothing to wait
        for).
        """
        try:
            key = unpack_key_fields(ctx.cmd)
        except KvEncodingError:
            return None, None, 0.0
        ptr = self.index.get(key)
        if ptr is None:
            return key, None, 0.0
        nand = self.ssd.nand
        nand.defer_reads()
        try:
            stored_key, value = self.vlog.read(ptr)
        finally:
            ready = nand.end_deferred()
        if stored_key != key:  # pragma: no cover - index corruption guard
            return key, None, ready
        return key, value, ready

    def _on_retrieve(self, ctx: CommandContext) -> CommandResult:
        ssd = self.ssd
        ssd.clock.advance(ssd.config.timing.kv_get_logic_ns)
        key, value, ready = self._lookup(ctx)
        if key is None:
            return CommandResult(StatusCode.INVALID_FIELD)
        self.gets += 1
        if value is None:
            return CommandResult(StatusCode.KV_KEY_NOT_FOUND,
                                 ready_at_ns=ready)
        # Positional (status, result, read_data, suppress_cqe, retryable,
        # ready_at_ns): keywords double the cost of this dataclass.
        return CommandResult(STATUS_SUCCESS, len(value), value, False,
                             False, ready)

    def _on_delete(self, ctx: CommandContext) -> CommandResult:
        try:
            key = unpack_key_fields(ctx.cmd)
        except KvEncodingError:
            return CommandResult(StatusCode.INVALID_FIELD)
        if self.index.get(key) is None:
            return CommandResult(StatusCode.KV_KEY_NOT_FOUND)
        # The durable tombstone lands before the index forgets the key,
        # so crash recovery replays the delete.
        return self._commit([(key, b"")], tombstone=True) or CommandResult()

    def _on_exist(self, ctx: CommandContext) -> CommandResult:
        self.ssd.clock.advance(self.ssd.config.timing.kv_get_logic_ns)
        key, value, ready = self._lookup(ctx)
        if key is None:
            return CommandResult(StatusCode.INVALID_FIELD)
        if value is None:
            return CommandResult(StatusCode.KV_KEY_NOT_FOUND,
                                 ready_at_ns=ready)
        return CommandResult(result=len(value), ready_at_ns=ready)

    def _on_list(self, ctx: CommandContext) -> CommandResult:
        """NVMe-KV LIST: keys ≥ the given key, in order, bounded by CDW15.

        Returns the spec-style key list: u32 count followed by
        (u16 key_len | key) records.
        """
        self.ssd.clock.advance(self.ssd.config.timing.kv_get_logic_ns)
        try:
            start = unpack_key_fields(ctx.cmd)
        except KvEncodingError:
            return CommandResult(StatusCode.INVALID_FIELD)
        max_keys = ctx.cmd.cdw15 or 64
        keys = []
        for key, _ptr in self.index.scan(start):
            keys.append(key)
            if len(keys) >= max_keys:
                break
        out = bytearray(len(keys).to_bytes(4, "little"))
        for key in keys:
            out += len(key).to_bytes(2, "little") + key
        self.lists += 1
        # Like RETRIEVE, the CQE result reports the *byte* length of the
        # data return, so the host can trim its read buffer exactly.
        return CommandResult(result=len(out), read_data=bytes(out))

    def peek(self, key: bytes) -> Optional[bytes]:
        """Timing-free ground-truth lookup for verification oracles.

        The cache-coherence invariant shadow-reads every cache hit from
        the device; going through :meth:`_lookup` would advance the
        simulated clock and skew the NAND counters, so this walks the
        DRAM-pinned index and the value log's ``peek`` chain instead.
        Returns None for missing/deleted keys.
        """
        ptr = self.index.get(key)
        if ptr is None:
            return None
        stored_key, value = self.vlog.peek(ptr)
        if stored_key != key:  # pragma: no cover - index corruption guard
            return None
        return value

    # ------------------------------------------------------------------
    # device-local iteration (used by tests and the example applications)
    # ------------------------------------------------------------------
    def scan(self, start: bytes,
             end: Optional[bytes] = None) -> Iterator[Tuple[bytes, bytes]]:
        """Range scan over [start, end): the SYSTOR '23 iterator API."""
        for key, ptr in self.index.scan(start, end):
            stored_key, value = self.vlog.read(ptr)
            yield stored_key, value

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------
    def replay_value_log(self) -> int:
        """Replay flushed value-log segments into the (empty) index.

        Walks the durable watermark — the flushed-segment set — in
        segment order: last-writer-wins falls out of replay order, and
        durable tombstone records make deletions survive the crash.
        Boot replay is firmware-internal, so its NAND reads block.
        Returns the number of live keys replayed.
        """
        restored: dict = {}
        for segment in self.vlog.flushed_segments:
            for ptr, key, value, is_tomb in self.vlog.parse_segment(segment):
                if is_tomb:
                    restored.pop(key, None)
                else:
                    restored[key] = ptr
        for key, ptr in restored.items():
            self.index.put(key, ptr)
        return len(restored)

    def recover(self) -> int:
        """Boot-time recovery: scrub the volatile index, replay the log.

        The index object *survives* (same LPN window, same tuning) —
        ``Persistable.scrub()`` resets its contents in place, so device
        identity persists across a controller reset instead of leaking
        a fresh index at a shifted LPN base per recovery.
        """
        self.index.scrub()
        return self.replay_value_log()

    def crash_and_recover(self) -> int:
        """Simulate power loss and rebuild the KV state from NAND.

        Enterprise KV-SSDs back their DRAM write buffer with capacitors
        (power-loss protection): on power fail the active value-log
        segment is flushed to NAND, but the volatile index state — the
        memtable and DRAM-pinned LSM levels — is gone.  Recovery then
        rebuilds the index by replaying the log (:meth:`recover`).

        Returns the number of live keys after recovery.
        """
        # Power-loss protection: the capacitor-backed flush.
        self.vlog.flush()
        self.ssd.nand.drain()
        return self.recover()
