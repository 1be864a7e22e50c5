"""The controller's command-fetch unit, decomposed out of the monolith.

:class:`FetchUnit` owns the ``get_nvme_cmd`` analogue: shadow-doorbell
polling/sync, single and burst SQE DMA fetch, the ByteExpress inline
detection at the fetch point (the paper's <20-line firmware hook), and
tagged-chunk reassembly feeding.  It is a *unit* of the controller —
queue state, stats counters and fault injection all live on the
controller (the orchestrator); the unit reads and advances them through
``self.ctrl`` so external instrumentation that watches controller
attributes keeps working unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.controller_ext import (
    ChunkCorruptionError,
    DeviceSqState,
    InlineFetchError,
    SqeWindow,
    fetch_inline_payload,
)
from repro.core.inline_command import InlineEncodingError, inspect_command
from repro.faults.plan import CORRUPT_INLINE_LENGTH
from repro.core.reassembly import ReassemblyError, parse_tagged, tagged_chunk_count
from repro.datapath.names import TRANSPORT_INLINE
from repro.host.shadow import SLOT_SIZE
from repro.nvme.command import NvmeCommand
from repro.nvme.constants import SQE_SIZE, StatusCode
from repro.pcie import tlp as tlpmod
from repro.pcie.traffic import CAT_CMD_FETCH, CAT_INLINE_CHUNK, CAT_SHADOW_SYNC
from repro.sim.config import SHADOW_IDLE_NS
from repro.ssd.context import (
    ADMIN_QID,
    MODE_QUEUE_LOCAL,
    MODE_TAGGED,
    CommandContext,
    CommandResult,
    DeferredCommand,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ssd.controller import NvmeController


class FetchUnit:
    """Doorbell polling, SQE fetch (single + burst), inline detection."""

    def __init__(self, ctrl: "NvmeController") -> None:
        self.ctrl = ctrl
        # The single-SQE fetch shape never changes; build its TLP batch
        # once instead of per command.  An inline chunk is one SQE, so
        # chunk fetches share it.
        self._sqe_fetch_batch = tlpmod.device_dma_read(SQE_SIZE,
                                                       ctrl.link.config)
        #: Burst fetch is on (queue-local mode only: tagged chunks
        #: interleave per entry).  The admin queue never bursts.
        self.bursts = (ctrl.config.burst_limit > 1
                       and ctrl.mode == MODE_QUEUE_LOCAL)

    # ------------------------------------------------------------------
    # shadow doorbells (DBBUF): device-side poll / sync
    # ------------------------------------------------------------------
    def shadow_span_bytes(self) -> int:
        """Bytes of the per-queue slot array the device reads/writes."""
        io_qids = [q for q in self.ctrl._sqs if q != ADMIN_QID]
        return SLOT_SIZE * (max(io_qids) + 1) if io_qids else 0

    def peek_shadow(self) -> bool:
        """The device's idle poll of the shadow page: does it publish a
        tail we have not latched?  Functional comparison only — the
        productive DMA read is charged once, in :meth:`sync_shadow`.
        Out-of-range (torn) values never look like work."""
        ctrl = self.ctrl
        for qid, state in ctrl._sqs.items():
            if qid == ADMIN_QID:
                continue
            tail = ctrl._shadow.read_sq_tail(qid)
            if 0 <= tail < state.depth and tail != ctrl._sq_tails[qid]:
                ctrl._shadow_stale = True
                return True
        return False

    def sync_shadow(self) -> None:
        """Latch every SQ tail and CQ head with ONE DMA read of the
        shadow array — the burst-mode replacement for N doorbell TLPs.

        Validation matches ``note_sq_doorbell``: a torn or stale
        out-of-range value is ignored (and counted), never trusted — the
        fetch path can therefore never read past a sanely published
        tail.
        """
        ctrl = self.ctrl
        span = self.shadow_span_bytes()
        if span == 0:
            ctrl._shadow_stale = False
            return
        with ctrl.clock.span("ctrl.shadow_sync"):
            ctrl.link.record_only(
                CAT_SHADOW_SYNC,
                tlpmod.device_dma_read(span, ctrl.link.config))
            ctrl.clock.advance(ctrl.timing.shadow_sync_ns)
        for qid, state in ctrl._sqs.items():
            if qid == ADMIN_QID:
                continue
            tail = ctrl._shadow.read_sq_tail(qid)
            if 0 <= tail < state.depth:
                ctrl._sq_tails[qid] = tail
            else:
                ctrl.shadow_rejects += 1
        for qid, cq in ctrl._cqs.items():
            if qid == ADMIN_QID:
                continue
            head = ctrl._shadow.read_cq_head(qid)
            if 0 <= head < cq.depth:
                cq.host_head = head
            else:
                ctrl.shadow_rejects += 1
        ctrl._shadow_stale = False
        ctrl.shadow_syncs += 1
        ctrl._busy_since_park = True

    def park(self) -> None:
        """Publish eventidx values + the park record with one DMA write
        (the shadow-doorbell half of the device-idle transition).  A
        no-op unless the device did work since the last park: an idle
        host polling an idle device must not generate traffic.
        """
        ctrl = self.ctrl
        if ctrl._shadow is None or not ctrl._busy_since_park:
            return
        with ctrl.clock.span("ctrl.shadow_sync"):
            for qid in ctrl._sqs:
                if qid != ADMIN_QID:
                    ctrl._shadow.write_sq_eventidx(qid, ctrl._sq_tails[qid])
            ctrl._shadow.write_poll_until(
                ctrl.clock.now + SHADOW_IDLE_NS)
            ctrl.link.record_only(
                CAT_SHADOW_SYNC,
                tlpmod.device_dma_write(self.shadow_span_bytes() + 8,
                                        ctrl.link.config))
            ctrl.clock.advance(ctrl.timing.shadow_park_ns)
        ctrl._busy_since_park = False

    # ------------------------------------------------------------------
    # command fetch (the get_nvme_cmd analogue)
    # ------------------------------------------------------------------
    def fetch_sqe(self, state: DeviceSqState) -> bytes:
        """64 B DMA fetch of the entry at the device head."""
        raw = self.ctrl.host_memory.read(state.slot_addr(state.head), SQE_SIZE)
        state.advance()
        return raw

    def resync_sq(self, qid: int) -> None:
        """Recover a queue whose inline sequence can no longer be parsed.

        Once the inline length is lost, the firmware cannot tell payload
        chunks from commands; interpreting them as commands would spray
        garbage completions.  Real firmware handles this class of queue
        error by discarding the published window and letting the host's
        retry logic resubmit whole commands — we do the same: jump the
        device head to the doorbell'd tail.
        """
        ctrl = self.ctrl
        state = ctrl._sqs[qid]
        if state.head != ctrl._sq_tails[qid]:
            state.head = ctrl._sq_tails[qid]
            ctrl.queue_resyncs += 1

    def service_queue(self, qid: int) -> int:
        """Service *qid*'s slot in the sweep: one command, or — when a
        doorbell advanced the tail by several entries and burst mode is
        on — every command whose SQE landed in one burst window.
        Returns the number of commands serviced."""
        ctrl = self.ctrl
        qos = ctrl.qos
        if qos is not None and qid != ADMIN_QID and qos.governs(qid):
            return self.service_queue_qos(qid, qos)
        window = (self.burst_fetch(qid)
                  if self.bursts and qid != ADMIN_QID else None)
        if window is None:
            self.fetch_and_execute(qid)
            return 1
        state = ctrl._sqs[qid]
        serviced = 0
        while (window.remaining > 0 and window.next_index == state.head
               and ctrl._pending_on(qid) > 0):
            self.fetch_and_execute(qid, window=window)
            serviced += 1
        return serviced

    def service_queue_qos(self, qid: int, qos) -> int:
        """Service a QoS-governed queue: at most the arbiter's grant
        (the WRR quantum clamped by the ops bucket), each command gated
        by the byte bucket.  A denied visit costs nothing here — while
        other queues make progress the sweep's clock already moves; the
        controller charges one doorbell poll only when an *entire*
        sweep is throttled flat (see ``poll_once``), which keeps
        throttled drains live without taxing well-behaved neighbors.
        """
        ctrl = self.ctrl
        grant = qos.grant(qid)
        serviced = 0
        if grant > 0:
            window = None
            if grant > 1 and self.bursts:
                window = self.burst_fetch(qid, limit=grant)
            state = ctrl._sqs[qid]
            while serviced < grant and ctrl._pending_on(qid) > 0:
                cost = self.peek_cost(state)
                if not qos.allow_bytes(qid, cost):
                    # Mid-burst exhaustion: clamp, never overdraw.  Any
                    # prefetched-but-unexecuted window entries are
                    # discarded; the head has not advanced past them.
                    break
                if window is not None and (
                        window.remaining <= 0
                        or window.next_index != state.head):
                    window = None
                self.fetch_and_execute(qid, window=window)
                qos.charge(qid, 1, cost)
                serviced += 1
        return serviced

    def peek_cost(self, state: DeviceSqState) -> int:
        """Wire cost (bytes) of the command at *state*'s head, without
        fetching it: the SQE itself plus its inline chunks or its PRP
        data length.  Functional peek only — the productive DMA is
        charged by the fetch that follows (same pattern as
        :meth:`peek_shadow`).  Malformed entries cost one SQE; the
        fetch path's error handling deals with them.
        """
        raw = self.ctrl.host_memory.read(state.slot_addr(state.head),
                                         SQE_SIZE)
        try:
            cmd = NvmeCommand.unpack(raw)
            info = inspect_command(cmd)
        except (ValueError, InlineEncodingError):
            return SQE_SIZE
        if info.is_inline:
            return SQE_SIZE * (1 + info.chunks)
        if self.ctrl._data_phase.get(cmd.opcode, True):
            return SQE_SIZE + cmd.cdw12
        return SQE_SIZE

    def burst_fetch(self, qid: int,
                    limit: Optional[int] = None) -> Optional[SqeWindow]:
        """Fetch min(pending, burst_limit) contiguous SQEs in ONE large
        DMA read (one MRd + its CplD batch instead of one pair per SQE).

        The window is clamped to the *published* tail — a torn or stale
        shadow value was already rejected by the doorbell/sync
        validation, so the burst can never read past what the host
        actually doorbell'd — and never wraps the ring end, keeping the
        transfer a single contiguous MRd.  Called only when
        :attr:`bursts` is on, for an I/O queue.
        """
        ctrl = self.ctrl
        state = ctrl._sqs[qid]
        count = min(ctrl._pending_on(qid), ctrl.config.burst_limit,
                    state.depth - state.head)
        if limit is not None and count > limit:
            count = limit  # QoS grant clamp: never prefetch past it
        if count <= 1:
            return None
        with ctrl.clock.span("ctrl.sq_fetch"):
            ctrl.clock.advance(ctrl.timing.doorbell_poll_ns)
            raw = ctrl.host_memory.read(state.slot_addr(state.head),
                                        count * SQE_SIZE)
            ctrl.link.record_only(
                CAT_CMD_FETCH,
                tlpmod.device_dma_read(count * SQE_SIZE, ctrl.link.config))
            ctrl.clock.advance(ctrl.timing.cmd_fetch_logic_ns)
        ctrl.burst_fetches += 1
        return SqeWindow(
            start=state.head, depth=state.depth,
            entries=[raw[i * SQE_SIZE:(i + 1) * SQE_SIZE]
                     for i in range(count)])

    def fetch_and_execute(self, qid: int,
                          window: Optional[SqeWindow] = None) -> None:
        ctrl = self.ctrl
        state = ctrl._sqs[qid]
        clock = ctrl.clock
        timing = ctrl.timing
        _span_start = clock.now
        try:
            head = state.head
            raw = window.take(head) if window is not None else None
            if raw is not None:
                # Burst-prefetched: already on-die, decode cost only.
                state.head = (head + 1) % state.depth
                clock.advance(timing.burst_sqe_logic_ns)
                cmd = NvmeCommand.unpack(raw)
            else:
                clock.advance(timing.doorbell_poll_ns)
                # fetch_sqe inlined (slot address and head advance too):
                # 64 B DMA read at the device head, decoded in place (a
                # slot of a page-aligned ring never straddles a page).
                depth = state.depth
                frame, in_page = ctrl.host_memory.frame_at(
                    state.base_addr + (head % depth) * SQE_SIZE)
                cmd = NvmeCommand.unpack_from(frame, in_page)
                state.head = (head + 1) % depth
                ctrl.link.record_only(CAT_CMD_FETCH, self._sqe_fetch_batch)
                clock.advance(timing.cmd_fetch_logic_ns)

            # --- ByteExpress detection (paper §3.3.1) -------------------
            # A zero reserved field (``cmd.inline_length``) is a plain
            # command: ``inspect_command`` would find it not inline.
            if not cmd.cdw2:
                ctx = CommandContext(cmd, qid)
            else:
                # ``faults.fire`` with its countdown step inlined.
                left = ctrl.faults.left
                if left[CORRUPT_INLINE_LENGTH]:
                    left[CORRUPT_INLINE_LENGTH] -= 1
                elif ctrl.faults.fire(CORRUPT_INLINE_LENGTH):
                    # The reserved field arrived bit-flipped: the decode
                    # below must detect it and fail the command, never
                    # mis-fetch.
                    cmd.cdw2 = ctrl.faults.corrupt_length(cmd.cdw2)
                try:
                    info = inspect_command(cmd)
                except InlineEncodingError:
                    ctrl.fetch_errors += 1
                    self.resync_sq(qid)
                    ctrl._complete(qid, cmd, CommandResult(
                        StatusCode.INVALID_FIELD, retryable=True))
                    return

                if not ctrl.byteexpress_enabled:
                    # Defensive firmware: refuse rather than misparse
                    # chunks.
                    ctrl.fetch_errors += 1
                    state.advance(min(info.chunks, ctrl._pending_on(qid)))
                    ctrl._complete(qid, cmd, CommandResult(
                        StatusCode.INVALID_FIELD))
                    return

                if ctrl.mode == MODE_TAGGED:
                    self.begin_tagged(qid, cmd, info.payload_len)
                    return

                try:
                    # Positional: (..., injector, window, chunk_batch),
                    # and CommandContext(cmd, qid, data, transport).
                    ctx = CommandContext(cmd, qid, fetch_inline_payload(
                        state, info, ctrl._sq_tails[qid],
                        ctrl.host_memory, ctrl.link, clock, timing,
                        ctrl.faults, window, self._sqe_fetch_batch),
                        TRANSPORT_INLINE)
                    ctrl.inline_payloads += 1
                except ChunkCorruptionError:
                    ctrl.fetch_errors += 1
                    self.resync_sq(qid)
                    ctrl._complete(qid, cmd, CommandResult(
                        StatusCode.DATA_TRANSFER_ERROR, retryable=True))
                    return
                except InlineFetchError:
                    ctrl.fetch_errors += 1
                    self.resync_sq(qid)
                    ctrl._complete(qid, cmd, CommandResult(
                        StatusCode.INVALID_FIELD, retryable=True))
                    return
        finally:
            clock.span_end("ctrl.sq_fetch", _span_start)

        ctrl._transfer_and_dispatch(qid, ctx)

    # ------------------------------------------------------------------
    # tagged (out-of-order) mode — paper §3.3.2 future work
    # ------------------------------------------------------------------
    def begin_tagged(self, qid: int, cmd: NvmeCommand,
                     payload_len: int) -> None:
        ctrl = self.ctrl
        payload_id = cmd.cdw3
        chunks = tagged_chunk_count(payload_len)
        try:
            ctrl._reassembly.expect(payload_id, payload_len)
        except ReassemblyError:
            ctrl.fetch_errors += 1
            ctrl._complete(qid, cmd, CommandResult(StatusCode.INVALID_FIELD))
            return
        ctrl._pending_chunks[qid] = ctrl._pending_chunks.get(qid, 0) + chunks
        ctrl._deferred.append(DeferredCommand(cmd, qid, payload_id))

    def fetch_tagged_chunk(self, qid: int) -> None:
        ctrl = self.ctrl
        state = ctrl._sqs[qid]
        if ctrl._pending_on(qid) == 0:
            return
        with ctrl.clock.span("ctrl.sq_fetch"):
            raw = self.fetch_sqe(state)
            ctrl.link.record_only(CAT_INLINE_CHUNK, self._sqe_fetch_batch)
            ctrl.clock.advance(ctrl.timing.chunk_fetch_ns)
        ctrl._pending_chunks[qid] -= 1
        try:
            payload = ctrl._reassembly.accept(raw)
        except ReassemblyError:
            ctrl.fetch_errors += 1
            return
        if payload is None:
            return
        payload_id, _, _, _ = parse_tagged(raw)
        for i, deferred in enumerate(ctrl._deferred):
            if deferred.payload_id == payload_id:
                ctrl._deferred.pop(i)
                ctx = CommandContext(cmd=deferred.cmd, qid=deferred.qid,
                                     data=payload,
                                     transport=TRANSPORT_INLINE)
                ctrl.inline_payloads += 1
                ctrl._transfer_and_dispatch(deferred.qid, ctx)
                return
        ctrl.fetch_errors += 1  # pragma: no cover - chunk without command
