"""The asynchronous I/O engine façade.

:class:`IoEngine` ties the in-flight table, the multi-queue scheduler
and the completion reactor to one driver/device pair:

* ``submit()`` places a write on a queue chosen by the scheduler,
  registers it in the table, and returns a :class:`CommandFuture`
  immediately — no per-command wait.  Doorbells are deferred: the next
  ``poll()`` publishes all dirty tails with one MMIO write per queue.
* ``poll()`` runs one reactor round (kick, drive, reap, recover).
* ``drain()`` polls until every future is resolved.

Backpressure is built in: when every eligible queue is at its QD cap
(or lacks SQ slots for the submission's footprint) the engine reaps
completions inline until capacity frees, so memory and CID usage stay
bounded no matter how fast the caller submits.

Transfer methods are the write paths that carry a host codec
(:func:`engine_methods`): ``byteexpress`` (queue-local or tagged chunks,
following the controller's mode), ``byteexpress-tagged`` (tagged
controllers only), ``prp`` and ``sgl`` (private per-command DMA
buffers), and ``bandslim`` (fragment command sequences; requires the
device layer from :mod:`repro.transfer.bandslim` to be registered).
Every (re)submission is one host-codec encode.  Breaker-guarded methods
(inline or fragmented) respect the driver's circuit breaker per
submission and are downgraded to PRP while it is open.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro import datapath
from repro.datapath import names as dp_names
from repro.engine.reactor import CompletionReactor
from repro.engine.scheduler import MultiQueueScheduler
from repro.engine.table import CommandFuture, InFlightCommand, InFlightTable
from repro.host.breaker import STATE_CLOSED
from repro.host.driver import NvmeDriver
from repro.host.memory import HostMemory
from repro.nvme.command import NvmeCommand
from repro.nvme.completion import NvmeCompletion
from repro.nvme.constants import (
    DEFAULT_NSID,
    PAGE_SIZE,
    IoOpcode,
    VendorOpcode,
)
from repro.nvme.queues import QueueFullError
from repro.nvme.sgl import build_read_sgl
from repro.pcie.traffic import EVT_INLINE_FALLBACK
from repro.ssd.controller import MODE_TAGGED
from repro.ssd.device import OpenSsd


#: Engine-capable specs by method name, in table order.
_ENGINE_SPECS = {spec.name: spec for spec in datapath.SPECS
                 if spec.host_codec is not None}

#: Specs a read's device→host data return can take.
_READ_SPECS = {name: _ENGINE_SPECS[name] for name in dp_names.READ_METHODS}


def engine_methods() -> tuple:
    """Write paths the engine can drive asynchronously: every spec with
    a host codec, in table order (a submission is one ``encode``)."""
    return tuple(_ENGINE_SPECS)


class EngineError(Exception):
    """Engine misuse or unrecoverable engine state."""


class EngineSaturatedError(EngineError, QueueFullError):
    """A submission can never be placed (footprint exceeds every queue).

    A :class:`QueueFullError`, like the codecs' own refusal of a payload
    the SQ cannot hold."""


@dataclass
class EngineStats:
    """Aggregate engine counters (recovery events mirror the driver's)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    retries: int = 0
    timeouts: int = 0
    re_rings: int = 0
    inline_fallbacks: int = 0
    breaker_trips: int = 0
    stale_completions: int = 0
    backpressure_waits: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(vars(self))


class IoEngine:
    """Asynchronous multi-queue submission over one driver/device pair.

    The stack's one submission loop: the QD>1 callers (load generator,
    KV service, tenants, the crash harness) and ``NvmeDriver.passthru``
    at QD 1.  A write is acked once its future resolves OK.
    """

    def __init__(self, ssd: OpenSsd, driver: NvmeDriver,
                 queues: Optional[Sequence[int]] = None,
                 qd: int = 8, policy: str = "round_robin",
                 fetch_lanes: Optional[int] = None,
                 default_nsid: int = DEFAULT_NSID) -> None:
        self.ssd = ssd
        self.driver = driver
        #: Namespace submissions target unless the caller overrides it.
        #: A tenant's engine facade (repro.virt) sets its private nsid
        #: here, so existing loadgen code works unmodified per tenant.
        self.default_nsid = default_nsid
        self.clock = driver.clock
        self.timing = driver.timing
        self.qids: List[int] = list(queues) if queues else list(driver.io_qids)
        for qid in self.qids:
            driver.queue(qid)  # validates existence
        #: Largest footprint any queue can ever take (SQ depths are
        #: fixed at creation), so saturation checks are one comparison.
        self._max_slots = max(driver.queue(qid).sq.depth - 1
                              for qid in self.qids)
        #: (slot footprint, fits-check) memoised per (method name,
        #: payload length) — pure function of the method's caps and the
        #: engine's tagged mode; one fits-closure per distinct footprint.
        self._placements: dict = {}
        self._fits_cache: dict = {}
        self.qd = qd
        self.fetch_lanes = (fetch_lanes if fetch_lanes is not None
                            else ssd.config.fetch_lanes)
        if self.fetch_lanes < 1:
            raise EngineError(f"fetch_lanes must be >= 1, got "
                              f"{self.fetch_lanes}")
        self.table = InFlightTable()
        self.scheduler = MultiQueueScheduler(self.qids, qd, policy)
        self.reactor = CompletionReactor(self)
        self.stats = EngineStats()
        #: Entries awaiting backoff expiry before resubmission.
        self.parked: List[InFlightCommand] = []
        #: Queues with submissions whose doorbell has not been rung yet.
        self._dirty: Set[int] = set()
        #: A tagged controller reassembles every inline payload from
        #: self-describing chunks, so inline writes take the tagged codec.
        self.tagged = ssd.controller.mode == MODE_TAGGED
        self._tagged_spec = datapath.resolve(dp_names.BYTEEXPRESS_TAGGED)
        #: Keyed and read-style commands ride the PRP spec, and so do
        #: guarded writes while the breaker is open.
        self._prp_spec = datapath.resolve(dp_names.PRP)
        #: Optional interleaving controller (repro.verify.explore.Schedule).
        #: When set, the reactor routes its arbitrary ordering decisions
        #: through ``schedule.order(label, seq)`` so the explorer can
        #: permute them; None (the default) keeps deterministic order.
        self.schedule: Optional[object] = None

    def _order(self, label: str, qids: Sequence[int]) -> Sequence[int]:
        """Apply the schedule permutation to an ordering decision."""
        if self.schedule is None:
            return qids
        ordered: Sequence[int] = self.schedule.order(label, qids)  # type: ignore[attr-defined]
        return ordered

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, payload: bytes, method: str = dp_names.BYTEEXPRESS,
               opcode: int = IoOpcode.WRITE, cdw10: int = 0,
               cdw11: int = 0, nsid: Optional[int] = None,
               stream: Optional[int] = None) -> CommandFuture:
        """Issue one asynchronous write; returns its future immediately.

        Blocks (in simulated time) only under backpressure, reaping
        completions until the scheduler finds capacity.
        """
        try:
            spec = _ENGINE_SPECS[method]
        except KeyError:
            raise EngineError(
                f"unknown engine method {method!r}; "
                f"expected one of {engine_methods()}") from None
        if not payload:
            raise EngineError("engine submissions require a payload")
        if (spec.caps.fragmented
                and not self.ssd.controller.supports(
                    VendorOpcode.BANDSLIM_FRAG)):
            raise EngineError(
                "bandslim requires the BandSlimDeviceLayer to be "
                "registered on the controller")
        future = CommandFuture(stream, len(payload))
        now = self.clock.now
        future.submit_ns = now
        entry = InFlightCommand(
            future=future, spec=spec, opcode=opcode, payload=payload,
            cdw10=cdw10, cdw11=cdw11,
            nsid=self.default_nsid if nsid is None else nsid, stream=stream,
            first_submit_ns=now,
            deadline_ns=now + self.driver.retry_policy.deadline_ns)
        self.stats.submitted += 1
        self._dispatch(entry)
        return future

    def submit_read(self, read_len: int, opcode: int, cdw10: int = 0,
                    cdw11: int = 0, mptr: int = 0, cdw14: int = 0,
                    cdw15: int = 0, nsid: Optional[int] = None,
                    stream: Optional[int] = None,
                    method: str = dp_names.PRP) -> CommandFuture:
        """Issue one asynchronous read-style (or keyed, data-free) command.

        The command carries no host→device payload — its operands ride
        entirely in the SQE (the NVMe-KV RETRIEVE/DELETE/EXIST/LIST
        shape: key in mptr+CDW10/11, length in CDW14).  *read_len* > 0
        allocates a private contiguous DMA buffer for the device's data
        return; the resolved future carries the returned bytes in
        ``future.data`` (trimmed to the CQE-reported result length).
        *read_len* == 0 submits a keyed command with no data phase in
        either direction (DELETE, EXIST).  Every in-flight read owns its
        buffer, so reads pipeline like writes do.  *method* ``sgl``
        discards the rest of the logical block in a bit bucket (§5).
        """
        if read_len < 0:
            raise EngineError("read_len must be >= 0")
        try:
            spec = _READ_SPECS[method]
        except KeyError:
            raise EngineError(
                f"a read takes 'prp' or 'sgl', not {method!r}") from None
        future = CommandFuture(stream=stream, payload_len=0)
        now = self.clock.now
        future.submit_ns = now
        entry = InFlightCommand(
            future=future, spec=spec, opcode=opcode, payload=b"",
            cdw10=cdw10, cdw11=cdw11,
            nsid=self.default_nsid if nsid is None else nsid, stream=stream,
            mptr=mptr, cdw14=cdw14, cdw15=cdw15, read_len=read_len,
            first_submit_ns=now,
            deadline_ns=now + self.driver.retry_policy.deadline_ns)
        self.stats.submitted += 1
        self._dispatch(entry)
        return future

    def _placement(self, entry: InFlightCommand
                   ) -> Tuple[int, Callable[[int], bool]]:
        """The SQ slots *entry* occupies (worst case: inline path, as the
        method's caps declare) and the scheduler's fits-check for that
        many."""
        key = (entry.spec.name, entry.future.payload_len)
        try:
            return self._placements[key]
        except KeyError:
            pass
        if len(self._placements) >= 65536:
            self._placements.clear()
        # A keyed command is one SQE: its operands ride in the SQE.
        need = (1 if entry.is_keyed else entry.spec.caps.slots_needed(
            len(entry.payload), tagged=self.tagged))
        fits = self._fits_cache.get(need)
        if fits is None:
            queues = self.driver._queues
            queue = self.driver.queue

            def fits(qid: int, _need: int = need) -> bool:
                # ``driver.queue(qid).sq.space() >= _need`` with the
                # lookup and ``space()`` inlined; an unknown qid still
                # raises the driver's error.
                try:
                    sq = queues[qid].sq
                except KeyError:
                    sq = queue(qid).sq
                return (sq.head - sq.tail - 1) % sq.depth >= _need
            self._fits_cache[need] = fits
        placement = self._placements[key] = (need, fits)
        return placement

    def _dispatch(self, entry: InFlightCommand) -> None:
        """Place *entry* on a queue, reaping under backpressure."""
        need, fits = self._placement(entry)
        if need > self._max_slots:
            raise EngineSaturatedError(
                f"submission needs {need} SQ slots; no queue is that deep")

        guard = 0
        while True:
            qid = self.scheduler.pick(stream=entry.stream, fits=fits)
            if qid is not None:
                self._submit_entry(entry, qid)
                return
            self.stats.backpressure_waits += 1
            resolved = self.poll()
            if resolved == 0 and not self.table and not self.parked:
                raise EngineSaturatedError(
                    f"no queue can accept a {need}-slot submission and "
                    f"nothing is in flight to free capacity")
            guard = guard + 1 if resolved == 0 else 0
            if guard > 10_000:
                raise EngineError(
                    "backpressure loop made no progress (livelock)")

    def _submit_entry(self, entry: InFlightCommand, qid: int) -> None:
        """Drive one (re)submission through the driver, no doorbell."""
        if not entry.payload:  # keyed: submitted through submit_read
            self._submit_keyed(entry, qid)
            return
        spec = entry.spec
        caps = spec.caps
        driver = self.driver
        breaker = driver.breaker
        # A closed breaker's ``allow_inline()`` is True with no side
        # effect, so it is only asked once the breaker has tripped.
        if (caps.breaker_guarded and breaker.state != STATE_CLOSED
                and not breaker.allow_inline()):
            # Breaker open: this attempt rides the stock PRP path.
            spec = self._prp_spec
            driver.inline_fallbacks += 1
            driver.link.counter.record_event(EVT_INLINE_FALLBACK)
            self.stats.inline_fallbacks += 1
        elif self.tagged and caps.inline:
            spec = self._tagged_spec
        entry.spec_used = spec
        entry.attempts += 1
        # The async submission API call itself (io_uring-style ioctl).
        self.clock.advance(self.timing.passthrough_ns)

        # Positional NvmeCommand construction (field order: opcode,
        # flags, cid, nsid, cdw2, cdw3, mptr, prp1, prp2, cdw10, cdw11)
        # — this allocation runs once per (re)submission.
        cmd = NvmeCommand(entry.opcode, 0, 0, entry.nsid, 0, 0, 0, 0, 0,
                          entry.cdw10, entry.cdw11)
        # ``submit`` admits only codec-bearing specs; calling the codec
        # directly skips the driver.submit resolve layer.
        cid = spec.host_codec.encode(driver, cmd, entry.payload, qid,
                                     ring=False)
        entry.key = (qid, cid)
        self.table.add(entry)
        self.scheduler.note_submit(qid)
        self._dirty.add(qid)

    def _submit_keyed(self, entry: InFlightCommand, qid: int) -> None:
        """(Re)submit a ``submit_read`` entry: one SQE, no data phase out.

        The read-return buffer is allocated once per entry and reused
        across timeout resubmissions — the retry must land its data in
        the same place the future's copy-out will look.
        """
        entry.spec_used = entry.spec
        entry.attempts += 1
        # The async submission API call itself (io_uring-style ioctl).
        self.clock.advance(self.timing.passthrough_ns)
        cmd = NvmeCommand(entry.opcode, 0, 0, entry.nsid, 0, 0, entry.mptr,
                          0, 0, entry.cdw10, entry.cdw11)
        cmd.cdw14 = entry.cdw14
        cmd.cdw15 = entry.cdw15
        if entry.read_len:
            if not entry.read_pages:
                pages = self.driver.memory.alloc_pages(
                    -(-entry.read_len // PAGE_SIZE))
                entry.read_pages = tuple(pages)
            cmd.cdw13 = entry.read_len
            if entry.spec is self._prp_spec:
                cmd.prp1 = entry.read_pages[0]
                cid = self.driver.submit_raw(cmd, qid, ring=False)
            else:
                # SGL (§5): read_len bytes into the buffer, then a bit
                # bucket to the next LBA boundary.  The segment page is
                # the CID's, so each retry builds its own.
                mapping = build_read_sgl(
                    self.driver.memory, entry.read_pages[0], entry.read_len,
                    -entry.read_len % self.ssd.config.lba_bytes)
                cmd.use_sgl()
                desc = mapping.inline.pack()
                cmd.prp1 = int.from_bytes(desc[:8], "little")
                cmd.prp2 = int.from_bytes(desc[8:], "little")
                cid = self.driver.submit_raw(cmd, qid, ring=False)
                self.driver.queue(qid).pending_pages[cid] = (
                    mapping.segment_pages)
        else:
            cid = self.driver.submit_raw(cmd, qid, ring=False)
        entry.key = (qid, cid)
        self.table.add(entry)
        self.scheduler.note_submit(qid)
        self._dirty.add(qid)

    def resubmit(self, entry: InFlightCommand) -> None:
        """Reactor callback: re-place a parked entry after backoff.

        Non-blocking: if every queue is saturated at this instant the
        entry re-parks and the next poll round tries again — recursing
        into the backpressure loop from inside the reactor would
        re-enter ``poll``.
        """
        _, fits = self._placement(entry)
        qid = self.scheduler.pick(stream=entry.stream, fits=fits)
        if qid is None:
            self.stats.backpressure_waits += 1
            entry.retry_at_ns = self.clock.now
            self.parked.append(entry)
            return
        self._submit_entry(entry, qid)

    # ------------------------------------------------------------------
    # progress
    # ------------------------------------------------------------------
    def kick_dirty(self) -> None:
        """Publish every deferred tail: one doorbell MMIO per queue."""
        dirty = self._dirty
        if len(dirty) == 1 and self.schedule is None:
            # One dirty queue (every QD-1 round): nothing to order.
            self.driver.kick(dirty.pop())
            return
        for qid in self._order("kick", sorted(dirty)):
            self.driver.kick(qid)
        dirty.clear()

    def poll(self) -> int:
        """One reactor round; returns futures resolved this round."""
        return self.reactor.poll()

    def drain(self) -> int:
        """Poll until nothing is in flight or parked; returns the number
        of futures resolved while draining."""
        resolved = 0
        stall = 0
        clock = self.clock
        table = self.table._entries
        while table or self.parked:
            before_ns = clock.now
            done = self.poll()
            resolved += done
            # No progress on a frozen clock: every submission, recovery
            # step and reap advances it, so only a wedge stands still.
            stall = 0 if done or clock.now != before_ns else stall + 1
            if stall > 100:
                raise EngineError(
                    f"drain stalled with {len(self.table)} in flight "
                    f"and {len(self.parked)} parked")
        return resolved

    @property
    def inflight(self) -> int:
        return len(self.table)



@dataclass(slots=True)
class AdminCommand(InFlightCommand):
    """An admin command: its SQE is re-issued under a fresh CID on every
    attempt, and a data return (Identify's page) fills the buffer, since
    the CQE reports no length."""

    sqe: Optional[NvmeCommand] = None

    def finish_read(self, cqe: Optional[NvmeCompletion],
                    memory: HostMemory) -> None:
        if cqe is not None and cqe.ok:
            self.future.data = memory.read(self.read_pages[0], self.read_len)
        self.release_read_buffer(memory)


class AdminQueueEngine(IoEngine):
    """An engine on the admin queue (qid 0, driven at QD 1).  Admin
    commands run in the kernel, so a submission pays no ioctl cost
    (``passthrough_ns``)."""

    def submit_admin(self, cmd: NvmeCommand,
                     read_len: int = 0) -> CommandFuture:
        """Issue admin command *cmd* (Create-CQ/SQ carry a ring base in
        PRP1, DBBUF_CONFIG its pages in PRP1/PRP2); a *read_len*-byte
        data return comes back in the future's ``data``."""
        future = CommandFuture()
        now = self.clock.now
        future.submit_ns = now
        entry = AdminCommand(
            future=future, spec=self._prp_spec, opcode=cmd.opcode,
            payload=b"", read_len=read_len, first_submit_ns=now,
            deadline_ns=now + self.driver.retry_policy.deadline_ns, sqe=cmd)
        self.stats.submitted += 1
        self._dispatch(entry)
        return future

    def _submit_keyed(self, entry: InFlightCommand, qid: int) -> None:
        assert isinstance(entry, AdminCommand) and entry.sqe is not None
        entry.spec_used = entry.spec
        entry.attempts += 1
        cmd = entry.sqe
        if entry.read_len:
            if not entry.read_pages:
                entry.read_pages = tuple(self.driver.memory.alloc_pages(
                    -(-entry.read_len // PAGE_SIZE)))
            cmd.prp1 = entry.read_pages[0]
        cid = self.driver.submit_raw(cmd, qid, ring=False)
        entry.key = (qid, cid)
        self.table.add(entry)
        self.scheduler.note_submit(qid)
        self._dirty.add(qid)
