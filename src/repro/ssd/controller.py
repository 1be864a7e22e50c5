"""NVMe controller: a thin orchestrator over decomposed firmware units.

Mirrors the Cosmos+ firmware structure the paper modified, but — since
the ISSUE 5 refactor — as an orchestrator rather than a monolith.  The
controller owns all device state (register file, queue maps, stats,
shadow/reassembly/coalescing state) and the public protocol surface;
the work is done by its units:

* :class:`~repro.ssd.fetch.FetchUnit` (``self.fetch``) — shadow-doorbell
  poll/sync, single + burst SQE DMA fetch, the ByteExpress inline
  detection hook, tagged-chunk reassembly feeding;
* the **datapath decoders** (:mod:`repro.datapath.decoders`) — PRP/SGL
  payload pull and read-data push, selected per command by PSDT;
* :class:`~repro.ssd.admin.AdminEngine` (``self.admin``) — Identify,
  queue create/delete, DBBUF shadow-doorbell configuration;
* :class:`~repro.ssd.completion_unit.CompletionUnit`
  (``self.completion``) — CQE posting, coalescing, completion faults.

Everything runs against *device-side* queue state only; host queue
objects are never touched, exactly as on real hardware where host and
device share nothing but memory and registers.  ByteExpress hooks in
where the paper's <20-line patch does — the command-fetch routine
(queue-local mode), plus the §3.3.2 tagged mode (out-of-order chunk
reassembly across queues).

Timing: device-side phase costs come from the calibrated
:class:`~repro.sim.config.TimingModel`; the PRP/SGL data path additionally
pays wire serialisation, which is what produces the 4 KB staircase of
Figure 1(b).

The shared firmware datatypes (:class:`CommandContext`,
:class:`CommandResult`, :class:`DeviceCqState`, ...) live in
:mod:`repro.ssd.context` and are re-exported here for compatibility.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.virt.qos import QosArbiter

from repro.core.controller_ext import DeviceSqState
from repro.core.reassembly import ReassemblyBuffer
from repro.datapath.decoders import decoder_for_psdt
from repro.host.memory import HostMemory
from repro.host.shadow import ShadowDoorbells
from repro.nvme.command import NvmeCommand
from repro.nvme.constants import PAGE_SIZE, STATUS_SUCCESS, StatusCode
from repro.nvme.identify import IdentifyController
from repro.nvme.queues import CqOverrunError
from repro.nvme.registers import (
    CC_ENABLE,
    CSTS_READY,
    REG_ACQ_LO,
    REG_AQA,
    REG_ASQ_LO,
    REG_CAP_LO,
    REG_CAP_HI,
    REG_CC,
    REG_CSTS,
    REG_VS,
    VERSION_1_4,
    cap_value,
    split_aqa,
)
from repro.pcie.link import PCIeLink
from repro.pcie.mmio import BarSpace, cq_doorbell_offset, sq_doorbell_offset
from repro.sim.clock import SimClock
from repro.sim.config import REASSEMBLY_IN_FLIGHT, SimConfig
from repro.ssd.admin import AdminEngine
from repro.ssd.completion_unit import CompletionUnit
from repro.ssd.context import (
    ADMIN_QID,
    MODE_QUEUE_LOCAL,
    MODE_TAGGED,
    CommandContext,
    CommandResult,
    DeferredCommand,
    DeviceCqState,
    Handler,
)
from repro.ssd.fetch import FetchUnit

__all__ = [
    "NvmeController",
    "CommandContext",
    "CommandResult",
    "DeviceCqState",
    "Handler",
    "CqOverrunError",
    "MODE_QUEUE_LOCAL",
    "MODE_TAGGED",
    "ADMIN_QID",
    "SERVICE_LOG_CAPACITY",
]

#: Default bounded capacity of the service-order trace (ring buffer).
SERVICE_LOG_CAPACITY = 4096


class NvmeController:
    """The device-side protocol engine."""

    def __init__(self, config: SimConfig, clock: SimClock, link: PCIeLink,
                 host_memory: HostMemory, bar: Optional[BarSpace] = None,
                 mode: str = MODE_QUEUE_LOCAL, injector=None) -> None:
        if mode not in (MODE_QUEUE_LOCAL, MODE_TAGGED):
            raise ValueError(f"unknown fetch mode {mode!r}")
        # One injector per rig: without one of its own the controller
        # shares the link's, so both count the same opportunity streams.
        self.faults = injector if injector is not None else link.faults
        self.config = config
        self.timing = config.timing
        self.clock = clock
        self.link = link
        self.host_memory = host_memory
        self.bar = bar if bar is not None else BarSpace()
        self.mode = mode
        # The device advertises its own capability (Cosmos+-class: 16 I/O
        # queues) — independent of how many the host wants to create.
        self.identify_data = IdentifyController()
        #: Firmware support switch: stock firmware would misparse inline
        #: chunks as commands, so a safety-conscious build rejects them.
        self.byteexpress_enabled = True
        self._sqs: Dict[int, DeviceSqState] = {}
        self._sq_tails: Dict[int, int] = {}
        self._cqs: Dict[int, DeviceCqState] = {}
        self._sq_cq: Dict[int, int] = {}
        self._handlers: Dict[int, Handler] = {}
        self._data_phase: Dict[int, bool] = {}
        #: The round-robin sweep order: ``(qid, state)`` per SQ, in
        #: creation order.  A tuple, replaced only when a queue is
        #: created or deleted or the controller resets, so a sweep
        #: iterates it without a copy even if an admin command it
        #: services creates or deletes a queue.
        self._rr_order: Tuple[Tuple[int, DeviceSqState], ...] = ()
        self._rr_next = 0
        self.enabled = False
        #: Namespace bindings (``repro.virt``): qid → owning nsid.  Empty
        #: means enforcement is disarmed — the single-tenant default —
        #: and costs one falsy-dict check per dispatch.
        self._ns_of_qid: Dict[int, int] = {}
        #: QoS arbiter (``repro.virt.qos.QosArbiter``); ``None`` keeps
        #: the fetch unit on its stock service path.
        self.qos: Optional["QosArbiter"] = None
        # tagged-mode state
        self._reassembly = ReassemblyBuffer(
            max_in_flight=REASSEMBLY_IN_FLIGHT)
        self._pending_chunks: Dict[int, int] = {}
        self._deferred: List[DeferredCommand] = []
        #: Optional fetch-order trace: every serviced qid is appended.
        #: Off by default; :meth:`enable_service_log` arms it as a
        #: *bounded* ring buffer so long traced engine runs cannot grow
        #: memory without limit.
        self.service_log: Optional[Deque[int]] = None
        # shadow-doorbell state (armed by the DBBUF_CONFIG admin command)
        self._shadow: Optional[ShadowDoorbells] = None
        self._shadow_stale = False
        self._busy_since_park = False
        # CQE coalescing: buffered-but-unposted completion counts per CQ
        self._coalesced: Dict[int, int] = {}
        #: Commands parked on a busy die, as a heap of (ready time,
        #: park sequence, qid, command, result); see ``post_parked``.
        self._parked: List[Tuple[float, int, int, NvmeCommand,
                                 CommandResult]] = []
        #: ``(qid, cid)`` of every command in ``_parked``.
        self._parked_keys: Dict[Tuple[int, int], None] = {}
        # stats
        self.commands_processed = 0
        self.admin_commands_processed = 0
        self.inline_payloads = 0
        self.fetch_errors = 0
        self.queue_resyncs = 0
        self.dropped_cqes = 0
        self.shadow_syncs = 0
        self.shadow_rejects = 0
        self.burst_fetches = 0
        self.cqe_flushes = 0
        self.ns_rejections = 0
        #: Commands parked until their NAND reads finished, and the
        #: simulated time the host waited on a die with no other work
        #: (``wait_for_die``, which a ``process_all`` drain calls too).
        self.parked_reads = 0
        self.die_wait_ns = 0.0
        # firmware units (the controller is the orchestrator; all state
        # above stays here, the units operate on it through their backref)
        self.admin = AdminEngine(self)
        self.fetch = FetchUnit(self)
        self.completion = CompletionUnit(self)
        self._publish_capabilities()

    def enable_service_log(
            self, capacity: int = SERVICE_LOG_CAPACITY) -> Deque[int]:
        """Arm the fetch-order trace, keeping only the last *capacity*
        serviced qids (a ring buffer — tracing a long run is safe)."""
        if capacity < 1:
            raise ValueError("service log capacity must be at least 1")
        self.service_log = deque(maxlen=capacity)
        return self.service_log

    # ------------------------------------------------------------------
    # register file
    # ------------------------------------------------------------------
    def _publish_capabilities(self) -> None:
        cap = cap_value(max_queue_entries=self.config.sq_depth)
        self.bar.write32(REG_CAP_LO, cap & 0xFFFFFFFF)
        self.bar.write32(REG_CAP_HI, cap >> 32)
        self.bar.write32(REG_VS, VERSION_1_4)
        self.bar.on_write(REG_CC, self._on_cc_write)

    def _on_cc_write(self, value: int) -> None:
        if value & CC_ENABLE and not self.enabled:
            self._enable()
        elif not value & CC_ENABLE and self.enabled:
            self._disable()

    def _enable(self) -> None:
        """CC.EN 0→1: latch the admin queue registers, come ready."""
        asq = self.bar.read32(REG_ASQ_LO)
        acq = self.bar.read32(REG_ACQ_LO)
        asq_depth, acq_depth = split_aqa(self.bar.read32(REG_AQA))
        if not asq or not acq:
            return  # driver forgot the bases; stay not-ready
        self._install_queue_pair(ADMIN_QID, asq, asq_depth, acq, acq_depth)
        self.enabled = True
        self.bar.write32(REG_CSTS, CSTS_READY)

    def _disable(self) -> None:
        """CC.EN 1→0: controller reset — drop all queue state."""
        self._sqs.clear()
        self._sq_tails.clear()
        self._cqs.clear()
        self._sq_cq.clear()
        self._rr_order = ()
        self._rr_next = 0
        self._pending_chunks.clear()
        self._deferred.clear()
        self._shadow = None
        self._shadow_stale = False
        self._busy_since_park = False
        self._coalesced.clear()
        self._parked.clear()
        self._parked_keys.clear()
        self._ns_of_qid.clear()
        self.enabled = False
        self.bar.write32(REG_CSTS, 0)

    def scrub(self) -> None:
        """Power cut: drop every volatile protocol structure.

        Equivalent to a controller reset (:meth:`_disable`) plus wiping
        the reassembly buffer, which ``_disable`` deliberately keeps
        (a live reset lets in-flight tagged chunks drain; a power cut
        does not).  Handlers, identify data and stats counters survive —
        the first two are firmware identity, the last are simulation
        bookkeeping the crash harness reads *after* the cut.
        """
        self._disable()
        self._reassembly = ReassemblyBuffer(
            max_in_flight=REASSEMBLY_IN_FLIGHT)

    # ------------------------------------------------------------------
    # queue management
    # ------------------------------------------------------------------
    def _install_queue_pair(self, qid: int, sq_base: int, sq_depth: int,
                            cq_base: int, cq_depth: int) -> None:
        self.create_cq(qid, cq_base, cq_depth)
        self.create_sq(qid, sq_base, sq_depth, cq_qid=qid)

    def create_cq(self, qid: int, base: int, depth: int) -> None:
        if qid in self._cqs:
            raise ValueError(f"CQ {qid} already exists")
        if depth < 2:
            raise ValueError("CQ depth must be at least 2")
        if base % PAGE_SIZE:
            # NVMe: a contiguous queue's base is memory-page aligned, so
            # no entry straddles a page.
            raise ValueError(f"CQ {qid} base {base:#x} is not page aligned")
        self._cqs[qid] = DeviceCqState(qid=qid, base_addr=base, depth=depth)
        self.bar.on_write(cq_doorbell_offset(qid),
                          partial(self.note_cq_head, qid))

    def create_sq(self, qid: int, base: int, depth: int, cq_qid: int) -> None:
        if qid in self._sqs:
            raise ValueError(f"SQ {qid} already exists")
        if cq_qid not in self._cqs:
            raise ValueError(f"SQ {qid} references missing CQ {cq_qid}")
        if depth < 2:
            raise ValueError("SQ depth must be at least 2")
        if base % PAGE_SIZE:
            raise ValueError(f"SQ {qid} base {base:#x} is not page aligned")
        state = self._sqs[qid] = DeviceSqState(qid=qid, base_addr=base,
                                               depth=depth)
        self._sq_tails[qid] = 0
        self._sq_cq[qid] = cq_qid
        self._rr_order += ((qid, state),)
        self.bar.on_write(sq_doorbell_offset(qid),
                          partial(self.note_sq_doorbell, qid))

    def delete_sq(self, qid: int) -> None:
        if qid not in self._sqs:
            raise ValueError(f"no SQ {qid}")
        del self._sqs[qid]
        del self._sq_tails[qid]
        del self._sq_cq[qid]
        self._rr_order = tuple(p for p in self._rr_order if p[0] != qid)
        self._rr_next = 0
        self._pending_chunks.pop(qid, None)
        self._ns_of_qid.pop(qid, None)
        if self._parked:
            # A deleted queue's parked commands are aborted with it
            # (in place: the reactor's drive loop holds the list).
            self._parked[:] = [p for p in self._parked if p[2] != qid]
            heapify(self._parked)
            self._parked_keys = {(p[2], p[3].cid): None
                                 for p in self._parked}
        self.bar.clear_write_handler(sq_doorbell_offset(qid))

    def delete_cq(self, qid: int) -> None:
        if qid not in self._cqs:
            raise ValueError(f"no CQ {qid}")
        if qid in self._sq_cq.values():
            raise ValueError(f"CQ {qid} still referenced by an SQ")
        del self._cqs[qid]
        self.bar.clear_write_handler(cq_doorbell_offset(qid))

    # ------------------------------------------------------------------
    # namespace bindings (repro.virt)
    # ------------------------------------------------------------------
    def bind_namespace(self, qid: int, nsid: int) -> None:
        """Pin SQ *qid* to namespace *nsid*; arms enforcement.

        Once any binding exists, every I/O command is checked at dispatch:
        nsid 0 is always rejected, and a command on a bound queue whose
        nsid differs from the owner's is rejected — both with
        ``INVALID_NAMESPACE_OR_FORMAT`` (DNR set; retry cannot succeed).
        Unbound queues stay usable with any non-zero nsid, so a host's
        own bring-up queues keep working beside tenant queues.
        """
        if qid == ADMIN_QID:
            raise ValueError("cannot bind a namespace to the admin queue")
        if nsid <= 0:
            raise ValueError(f"nsid must be positive, got {nsid}")
        self._ns_of_qid[qid] = nsid

    def unbind_namespace(self, qid: int) -> None:
        """Drop SQ *qid*'s namespace binding (idempotent)."""
        self._ns_of_qid.pop(qid, None)

    def namespace_of(self, qid: int) -> Optional[int]:
        """The nsid bound to SQ *qid*, or ``None``."""
        return self._ns_of_qid.get(qid)

    def note_sq_doorbell(self, qid: int, tail: int) -> None:
        try:
            state = self._sqs[qid]
        except KeyError:
            return  # spec: bad doorbells are ignored (may set CSTS later)
        if 0 <= tail < state.depth:
            self._sq_tails[qid] = tail

    def note_cq_head(self, qid: int, head: int) -> None:
        try:
            state = self._cqs[qid]
        except KeyError:
            return
        if 0 <= head < state.depth:
            state.host_head = head

    # ------------------------------------------------------------------
    # handler registration
    # ------------------------------------------------------------------
    def register_handler(self, opcode: int, handler: Handler,
                         data_phase: bool = True) -> None:
        """Attach firmware for an I/O *opcode*.

        *data_phase* declares whether the opcode moves host→device data
        through the data pointer (PRP/SGL) when CDW12 is non-zero — in
        real NVMe the transfer direction is defined per opcode, and
        BandSlim fragment commands carry their payload in command fields,
        not through a data pointer.
        """
        self._handlers[opcode] = handler
        self._data_phase[opcode] = data_phase

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def _pending_on(self, qid: int) -> int:
        """Doorbell'd entries not yet fetched on SQ *qid*; 0 for a queue
        the controller no longer has (deleted, or cleared by a reset)."""
        try:
            state = self._sqs[qid]
        except KeyError:
            return 0
        return (self._sq_tails[qid] - state.head) % state.depth

    def quiesce(self) -> None:
        """The device-idle transition, called by the host-side drive
        loops once the firmware loop runs dry.

        Does not wait for the dies: a command still parked on a NAND
        read stays parked and posts once the clock passes its ready time
        (:meth:`post_parked`, which the engine's reactor calls inside
        its lane scope).  So an entry still tabled after a quiescent
        drive either got no CQE or is parked (:meth:`parked_keys`).
        Flushes any coalesced completions and, under shadow doorbells
        with no read parked, parks the device: the fetch unit publishes
        the per-queue eventidx values and the park record — the promise
        to keep polling the shadow page for another ``SHADOW_IDLE_NS`` —
        with one small DMA write.  A device with a read still parked is
        not idle, so it publishes no park record yet.  A no-op unless
        the device did work since the last park: an idle host polling an
        idle device must not generate traffic.  Each step is skipped
        without a call when it has nothing to do (no coalesced CQE; no
        shadow page).
        """
        if self._coalesced:
            self.flush_completions()
        if self._shadow is not None and not self._parked:
            self.fetch.park()

    def sweep_width(self, ready_only: bool = True) -> int:
        """The next sweep's width: 0 when no queue has fetchable work
        ready, else the number of queues with doorbell'd work (at least 1).

        A parked (weight-0) queue is never ready; *ready_only* also skips
        QoS-throttled ones.  The engine's reactor drives while this is
        non-zero (one tenant's polls never sit out another's token
        refill) and sizes its lanes from it; full drains pass
        ``ready_only=False`` and wait the throttle out.  A stale shadow
        page counts as ready and is synced before the queues are counted.
        """
        ready = False
        if self._shadow is not None:
            if not self._shadow_stale:
                self.fetch.peek_shadow()
            if self._shadow_stale:
                self.fetch.sync_shadow()
                ready = True
        tails = self._sq_tails
        chunks = self._pending_chunks
        qos = self.qos
        count = 0
        for qid, state in self._rr_order:
            # ``chunks`` is empty unless tagged chunks are in flight.
            if ((tails[qid] - state.head) % state.depth
                    or (chunks and chunks.get(qid, 0))):
                count += 1
                if ready:
                    continue
                if qos is not None and (
                        not qos.serviceable(qid)
                        or (ready_only and qos.governs(qid)
                            and not qos.ready(
                                qid, self.fetch.peek_cost(state)))):
                    continue  # parked or throttled: pending, not ready
                ready = True
        if not ready:
            return 0
        return count or 1

    def supports(self, opcode: int) -> bool:
        """Is firmware registered for *opcode*?  (Feature probing for
        layered transports such as BandSlim fragment reassembly.)"""
        return opcode in self._handlers

    def abort_payload(self, payload_id: int) -> None:
        """Drop tagged-reassembly state for an abandoned payload.

        The engine's timeout path calls this before resubmitting a
        tagged command under a fresh payload id, so half-received chunk
        state cannot pin SRAM forever.  Idempotent.
        """
        self._reassembly.abort(payload_id)

    def process_all(self) -> int:
        """Run the firmware loop until every queue is drained."""
        done = 0
        while self.sweep_width(ready_only=False):
            done += self.poll_once()
        while self._parked:
            self.wait_for_die()
            self.post_parked()
        self.quiesce()
        return done

    def poll_once(self) -> int:
        """One round-robin sweep over the doorbells.

        Fairness: the sweep *resumes from the queue after the last one it
        serviced* rather than restarting from a fixed position.  A full
        sweep advances ``_rr_next`` by exactly its own length, so the old
        code always began at the same queue — under sustained multi-queue
        load the lowest-numbered SQ was serviced first every sweep and
        high-numbered SQs saw systematically worse fetch latency.
        """
        if self._shadow is not None:
            if not self._shadow_stale:
                self.fetch.peek_shadow()
            if self._shadow_stale:
                self.fetch.sync_shadow()
        done = 0
        # ``_rr_order`` is replaced, never mutated, when servicing the
        # admin queue creates or deletes a queue mid-sweep (tenant
        # provisioning): this sweep keeps the order it started with,
        # skips queues deleted under it, and created ones join the next.
        order = self._rr_order
        nqueues = len(order)
        if not nqueues:
            return 0
        start = self._rr_next
        tagged = self.mode == MODE_TAGGED
        tails = self._sq_tails
        sqs = self._sqs
        log = self.service_log
        fetch = self.fetch
        # With bursts and QoS off a queue's visit is one command, so the
        # sweep fetches it without ``service_queue`` in between.
        one_each = not fetch.bursts and self.qos is None
        for i in range(nqueues):
            idx = (start + i) % nqueues
            qid, state = order[idx]
            if qid not in sqs:
                continue  # deleted by an admin command this sweep
            if tagged and self._pending_chunks.get(qid, 0):
                fetch.fetch_tagged_chunk(qid)
                serviced = 1
            else:
                if (tails[qid] - state.head) % state.depth == 0:
                    continue
                if one_each:
                    fetch.fetch_and_execute(qid)
                    serviced = 1
                else:
                    serviced = fetch.service_queue(qid)
            done += serviced
            self._rr_next = (idx + 1) % nqueues
            if log is not None:
                log.extend([qid] * serviced)
        if done:
            self._busy_since_park = True
        elif self.qos is not None and self.sweep_width(ready_only=False):
            # Every pending queue was throttled this sweep.  The firmware
            # polls the doorbells while token buckets refill — jump the
            # clock to the denials' next service instant (at least one
            # doorbell poll) so throttled drains stay live without
            # sweeping once per poll interval.  Charged only on an
            # all-denied sweep: while any queue makes real progress,
            # well-behaved neighbors pay nothing for a throttled
            # tenant's presence.
            self.clock.advance(max(self.timing.doorbell_poll_ns,
                                   self.qos.take_wait_ns()))
        return done

    # ------------------------------------------------------------------
    # data movement — delegated to the datapath decoders
    # ------------------------------------------------------------------
    def _push_read_data(self, cmd: NvmeCommand,
                        result: CommandResult) -> CommandResult:
        """Device→host data return for a successful read-style command.

        The PSDT field selects the datapath decoder; with an SGL data
        pointer, bit-bucket descriptors discard their share of the data
        instead of transferring it (paper §5: "enabling completion of
        small-data read requests without requiring data return") — the
        read-side counterpart of write-path granularity.  Returns the
        result to complete with: DATA_TRANSFER_ERROR, as on the pull
        side, when the host buffer cannot be written.
        """
        data = result.read_data
        if not data:
            return result
        clock = self.clock
        start = clock.now
        try:
            decoder_for_psdt((cmd.flags >> 6) & 0b11).push(self, cmd, data)
        except (ValueError, MemoryError):
            self.fetch_errors += 1
            return CommandResult(StatusCode.DATA_TRANSFER_ERROR)
        finally:
            clock.span_end("ctrl.data_transfer", start)
        return result

    # ------------------------------------------------------------------
    # dispatch + completion
    # ------------------------------------------------------------------
    def _transfer_and_dispatch(self, qid: int, ctx: CommandContext) -> None:
        cmd = ctx.cmd
        if qid == ADMIN_QID:
            self.admin.dispatch(qid, ctx)
            return
        ns_map = self._ns_of_qid
        if ns_map:
            # Namespace enforcement is armed (repro.virt): nsid 0 is
            # never valid on an I/O command, and a bound queue only
            # accepts its owner's nsid.
            owner = ns_map.get(qid)
            if cmd.nsid == 0 or (owner is not None and cmd.nsid != owner):
                self.ns_rejections += 1
                self._complete(qid, cmd, CommandResult(
                    StatusCode.INVALID_NAMESPACE_OR_FORMAT))
                return
        # Writes with a data pointer but no inline payload use PRP/SGL.
        # Convention (matches the NVM command set): CDW12 carries the
        # host→device data length in bytes for our vendor/passthrough
        # commands; zero means no host→device data phase.
        if ctx.data is None:
            xfer_len = cmd.cdw12
            if xfer_len and self._data_phase.get(cmd.opcode, True):
                try:
                    # A reserved PSDT is refused with ValueError, so it
                    # completes with an error like a failed pull.
                    decoder = decoder_for_psdt((cmd.flags >> 6) & 0b11)
                    ctx.data = decoder.pull(self, cmd, xfer_len)
                    ctx.transport = decoder.transport
                except (ValueError, MemoryError):
                    self.fetch_errors += 1
                    self._complete(qid, cmd, CommandResult(
                        StatusCode.DATA_TRANSFER_ERROR))
                    return

        try:
            handler = self._handlers[cmd.opcode]
        except KeyError:
            self._complete(qid, cmd, CommandResult(StatusCode.INVALID_OPCODE))
            return
        result = handler(ctx)
        if result.ready_at_ns:
            # Parked on its die: the firmware loop goes on meanwhile.
            self.parked_reads += 1
            heappush(self._parked, (result.ready_at_ns, self.parked_reads,
                                    qid, cmd, result))
            self._parked_keys[qid, cmd.cid] = None
            return
        if result.read_data is not None and result.status == STATUS_SUCCESS:
            result = self._push_read_data(cmd, result)
        self._complete(qid, cmd, result)

    def parked_ready_width(self) -> int:
        """The number of distinct queues among the parked commands whose
        die has finished by now (0 when none has)."""
        parked = self._parked
        now = self.clock.now
        n = len(parked)
        qids = {}
        # Walk only the ready top of the heap: no child is ready before
        # its parent.  (Index arithmetic and ``+=`` keep the walk free
        # of calls.)
        todo = [0] if n and parked[0][0] <= now else []
        while todo:
            i = todo[-1]
            del todo[-1]
            qids[parked[i][2]] = None
            child = 2 * i + 1
            if child < n and parked[child][0] <= now:
                todo += (child,)
            child += 1
            if child < n and parked[child][0] <= now:
                todo += (child,)
        return len(qids)

    def post_parked(self) -> None:
        """Complete, in ready-time order, every parked command whose die
        had finished when the call began.

        The reactor calls this inside a lane scope of
        :meth:`parked_ready_width`, so completions on different queues
        overlap like any other command service; a :meth:`process_all`
        drain calls it after each :meth:`wait_for_die`.
        """
        parked = self._parked
        until = self.clock.now
        while parked and parked[0][0] <= until:
            _ready, _seq, qid, cmd, result = heappop(parked)
            del self._parked_keys[qid, cmd.cid]
            if (result.read_data is not None
                    and result.status == STATUS_SUCCESS):
                result = self._push_read_data(cmd, result)
            self._complete(qid, cmd, result)

    def wait_for_die(self) -> None:
        """Advance the clock to the earliest parked command's ready time
        (``die_wait_ns`` counts the wait).  The reactor calls this only
        when a round resolved nothing and no queue has fetchable work; a
        :meth:`process_all` drain, before each :meth:`post_parked`."""
        ready = self._parked[0][0]
        now = self.clock.now
        if ready > now:
            self.die_wait_ns += ready - now
            self.clock.advance_to(ready)

    def parked_keys(self) -> Dict[Tuple[int, int], None]:
        """``(qid, cid)`` of every command parked on a die (a live view:
        read it, do not keep it).  They are in flight, not lost, so host
        recovery leaves them alone."""
        return self._parked_keys

    def dispatch_local(self, ctx: CommandContext) -> CommandResult:
        """Invoke an opcode handler on an already-materialised payload.

        Used by device-side layers that assemble payloads outside the
        normal transfer path (BandSlim fragment reassembly, the MMIO byte
        interface) and then hand off to the same firmware handlers.
        """
        handler = self._handlers.get(ctx.cmd.opcode)
        if handler is None:
            return CommandResult(StatusCode.INVALID_OPCODE)
        return handler(ctx)

    def _complete(self, qid: int, cmd: NvmeCommand,
                  result: CommandResult) -> None:
        """Delegate to the completion unit (see ``CompletionUnit.complete``).

        Stays a controller method on purpose: tests and instrumentation
        patch ``controller._complete``, and every unit routes completions
        through this name so such patches see the whole completion flow.
        """
        self.completion.complete(qid, cmd, result)

    def flush_completions(self) -> None:
        """Flush every CQ's buffered completion batch (idle transition,
        or any point the host needs the accounting settled)."""
        self.completion.flush_all()
