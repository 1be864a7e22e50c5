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
from dataclasses import replace
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.virt.qos import QosArbiter

from repro.core.controller_ext import DeviceSqState
from repro.core.reassembly import ReassemblyBuffer
from repro.datapath.decoders import decoder_for_psdt
from repro.host.memory import HostMemory
from repro.host.shadow import ShadowDoorbells
from repro.nvme.command import NvmeCommand
from repro.nvme.constants import StatusCode
from repro.nvme.identify import IdentifyController
from repro.nvme.queues import CompletionQueue, CqOverrunError, SubmissionQueue
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
from repro.sim.config import SimConfig
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
                 mode: str = MODE_QUEUE_LOCAL,
                 identify: Optional[IdentifyController] = None,
                 injector=None) -> None:
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
        self.identify_data = identify or IdentifyController()
        #: Firmware support switch: stock firmware would misparse inline
        #: chunks as commands, so a safety-conscious build rejects them.
        self.byteexpress_enabled = True
        self._sqs: Dict[int, DeviceSqState] = {}
        self._sq_tails: Dict[int, int] = {}
        self._cqs: Dict[int, DeviceCqState] = {}
        self._sq_cq: Dict[int, int] = {}
        self._handlers: Dict[int, Handler] = {}
        self._data_phase: Dict[int, bool] = {}
        self._rr_order: List[int] = []
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
            max_in_flight=config.reassembly_in_flight)
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
        self._rr_order.clear()
        self._rr_next = 0
        self._pending_chunks.clear()
        self._deferred.clear()
        self._shadow = None
        self._shadow_stale = False
        self._busy_since_park = False
        self._coalesced.clear()
        self._ns_of_qid.clear()
        self.enabled = False
        self.bar.write32(REG_CSTS, 0)

    # ------------------------------------------------------------------
    # persistence (repro.durability)
    # ------------------------------------------------------------------
    # Everything the controller holds about in-flight protocol state —
    # queue maps, private head pointers, reassembly slots, coalescing
    # counters — lives in controller SRAM/DRAM: DEVICE_VOLATILE.  The
    # handler table, identify data and register *capabilities* are
    # firmware identity and survive (they are republished on reset).

    def snapshot(self) -> object:
        shadow = (None if self._shadow is None
                  else (self._shadow.shadow_addr, self._shadow.eventidx_addr))
        return {
            "enabled": self.enabled,
            "sqs": {q: replace(s) for q, s in self._sqs.items()},
            "sq_tails": dict(self._sq_tails),
            "cqs": {q: replace(c) for q, c in self._cqs.items()},
            "sq_cq": dict(self._sq_cq),
            "rr_order": list(self._rr_order),
            "rr_next": self._rr_next,
            "ns_of_qid": dict(self._ns_of_qid),
            "pending_chunks": dict(self._pending_chunks),
            "deferred": list(self._deferred),
            "shadow": shadow,
            "shadow_stale": self._shadow_stale,
            "busy_since_park": self._busy_since_park,
            "coalesced": dict(self._coalesced),
        }

    def restore(self, state: object) -> None:
        assert isinstance(state, dict)
        self.enabled = state["enabled"]
        self._sqs = {q: replace(s) for q, s in state["sqs"].items()}
        self._sq_tails = dict(state["sq_tails"])
        self._cqs = {q: replace(c) for q, c in state["cqs"].items()}
        self._sq_cq = dict(state["sq_cq"])
        self._rr_order = list(state["rr_order"])
        self._rr_next = state["rr_next"]
        self._ns_of_qid = dict(state["ns_of_qid"])
        self._pending_chunks = dict(state["pending_chunks"])
        self._deferred = list(state["deferred"])
        shadow = state["shadow"]
        self._shadow = (None if shadow is None else ShadowDoorbells.attach(
            self.host_memory, shadow[0], shadow[1]))
        self._shadow_stale = state["shadow_stale"]
        self._busy_since_park = state["busy_since_park"]
        self._coalesced = dict(state["coalesced"])
        self.bar.write32(REG_CSTS, CSTS_READY if self.enabled else 0)

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
            max_in_flight=self.config.reassembly_in_flight)
        self._pending_chunks.clear()
        self._deferred.clear()

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
        self._cqs[qid] = DeviceCqState(qid=qid, base_addr=base, depth=depth)
        self.bar.on_write(cq_doorbell_offset(qid),
                          lambda head, q=qid: self.note_cq_head(q, head))

    def create_sq(self, qid: int, base: int, depth: int, cq_qid: int) -> None:
        if qid in self._sqs:
            raise ValueError(f"SQ {qid} already exists")
        if cq_qid not in self._cqs:
            raise ValueError(f"SQ {qid} references missing CQ {cq_qid}")
        if depth < 2:
            raise ValueError("SQ depth must be at least 2")
        self._sqs[qid] = DeviceSqState(qid=qid, base_addr=base, depth=depth)
        self._sq_tails[qid] = 0
        self._sq_cq[qid] = cq_qid
        self._rr_order.append(qid)
        self.bar.on_write(sq_doorbell_offset(qid),
                          lambda tail, q=qid: self.note_sq_doorbell(q, tail))

    def delete_sq(self, qid: int) -> None:
        if qid not in self._sqs:
            raise ValueError(f"no SQ {qid}")
        del self._sqs[qid]
        del self._sq_tails[qid]
        del self._sq_cq[qid]
        self._rr_order.remove(qid)
        self._rr_next = 0
        self._pending_chunks.pop(qid, None)
        self._ns_of_qid.pop(qid, None)
        self.bar.clear_write_handler(sq_doorbell_offset(qid))

    def delete_cq(self, qid: int) -> None:
        if qid not in self._cqs:
            raise ValueError(f"no CQ {qid}")
        if qid in self._sq_cq.values():
            raise ValueError(f"CQ {qid} still referenced by an SQ")
        del self._cqs[qid]
        self.bar.clear_write_handler(cq_doorbell_offset(qid))

    def register_queue_pair(self, sq: SubmissionQueue,
                            cq: CompletionQueue) -> None:
        """Convenience wiring from host queue objects (tests, direct use)."""
        if sq.qid in self._sqs:
            raise ValueError(f"queue pair {sq.qid} already registered")
        self._install_queue_pair(sq.qid, sq.base_addr, sq.depth,
                                 cq.base_addr, cq.depth)

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
        state = self._sqs.get(qid)
        if state is None or not 0 <= tail < state.depth:
            return  # spec: bad doorbells are ignored (may set CSTS later)
        self._sq_tails[qid] = tail

    def note_cq_head(self, qid: int, head: int) -> None:
        state = self._cqs.get(qid)
        if state is None or not 0 <= head < state.depth:
            return
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
        state = self._sqs[qid]
        return (self._sq_tails[qid] - state.head) % state.depth

    def quiesce(self) -> None:
        """The device-idle transition, called by the host-side drive
        loops once the firmware loop runs dry.

        Flushes any coalesced completions, then (under shadow doorbells)
        parks the device: the fetch unit publishes the per-queue eventidx
        values and the park record — the promise to keep polling the
        shadow page for another ``shadow_idle_ns`` — with one small DMA
        write.  A no-op unless the device did work since the last park:
        an idle host polling an idle device must not generate traffic.
        """
        self.flush_completions()
        self.fetch.park()

    def has_pending(self, ready_only: bool = False) -> bool:
        """Is there fetchable work?

        *ready_only* additionally skips QoS-throttled queues (pending
        work whose token buckets cannot afford a fetch right now).  The
        engine reactor drives with ``ready_only=True`` so one tenant's
        polls never sit out another tenant's token refill; full drains
        (``process_all``) keep the default and wait the throttle out.
        """
        if self._shadow is not None and not self._shadow_stale:
            self.fetch.peek_shadow()
        if self._shadow_stale:
            return True
        tails = self._sq_tails
        chunks = self._pending_chunks
        qos = self.qos
        for qid, state in self._sqs.items():
            if ((tails[qid] - state.head) % state.depth
                    or chunks.get(qid, 0)):
                if qos is not None:
                    if not qos.serviceable(qid):
                        continue  # parked (weight-0) queue: not drainable
                    if (ready_only and qos.governs(qid)
                            and not qos.ready(
                                qid, self.fetch.peek_cost(state))):
                        continue  # throttled: pending, but not right now
                return True
        return False

    def active_queue_count(self) -> int:
        """Queues with doorbell'd work the next sweep would service.

        The engine's completion reactor uses this to size the firmware's
        parallel service width (bounded by ``config.fetch_lanes``).
        """
        if self._shadow is not None and self._shadow_stale:
            self.fetch.sync_shadow()
        tails = self._sq_tails
        chunks = self._pending_chunks
        count = 0
        for qid, state in self._sqs.items():
            if ((tails[qid] - state.head) % state.depth
                    or chunks.get(qid, 0)):
                count += 1
        return count

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
        while self.has_pending():
            done += self.poll_once()
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
        # Snapshot: servicing the admin queue can CREATE/DELETE queues
        # mid-sweep (tenant provisioning), mutating ``_rr_order`` under
        # the iteration.  Deleted queues are skipped below; created ones
        # join the next sweep.
        order = list(self._rr_order)
        if not order:
            return 0
        start = self._rr_next
        nqueues = len(order)
        tagged = self.mode == MODE_TAGGED
        tails = self._sq_tails
        sqs = self._sqs
        log = self.service_log
        fetch = self.fetch
        for i in range(nqueues):
            idx = (start + i) % nqueues
            qid = order[idx]
            state = sqs.get(qid)
            if state is None:
                continue  # deleted by an admin command this sweep
            if tagged and self._pending_chunks.get(qid, 0):
                fetch.fetch_tagged_chunk(qid)
                serviced = 1
            else:
                if (tails[qid] - state.head) % state.depth == 0:
                    continue
                serviced = fetch.service_queue(qid)
            done += serviced
            self._rr_next = (idx + 1) % nqueues
            if log is not None:
                log.extend([qid] * serviced)
        if done:
            self._busy_since_park = True
        elif self.qos is not None and self.has_pending():
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
    def _push_read_data(self, cmd: NvmeCommand, data: bytes) -> None:
        """Device→host data return for read-style commands.

        The PSDT field selects the datapath decoder; with an SGL data
        pointer, bit-bucket descriptors discard their share of the data
        instead of transferring it (paper §5: "enabling completion of
        small-data read requests without requiring data return") — the
        read-side counterpart of write-path granularity.
        """
        if not data:
            return
        with self.clock.span("ctrl.data_transfer"):
            decoder_for_psdt(cmd.psdt).push(self, cmd, data)

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
            xfer_len = (cmd.cdw12 if self._data_phase.get(cmd.opcode, True)
                        else 0)
            if xfer_len:
                decoder = decoder_for_psdt(cmd.psdt)
                try:
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
        if result.read_data is not None and result.status == StatusCode.SUCCESS:
            self._push_read_data(cmd, result.read_data)
        self._complete(qid, cmd, result)

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
