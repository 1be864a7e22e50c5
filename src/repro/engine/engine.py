"""The asynchronous I/O engine façade.

:class:`IoEngine` ties the in-flight table, the multi-queue scheduler
and the completion reactor to one driver/device pair:

* ``submit()`` places a write on a queue chosen by the scheduler,
  registers it in the table, and returns a :class:`CommandFuture`
  immediately — no per-command wait.  Doorbells are deferred: the next
  ``poll()`` publishes all dirty tails with one MMIO write per queue.
* ``poll()`` runs one reactor round (kick, drive, reap, recover), then
  fires the completion callbacks of the futures that round resolved.
* ``drain()`` polls until every future is resolved.

A future's ``callback`` therefore runs in the round that reaped its
CQE, including a round ``_dispatch`` runs under backpressure, so a
caller such as ``KvService`` keeps no list of its own to scan.  The
drain of due callbacks is not re-entrant: a callback that submits work
whose ``_dispatch`` polls only queues that nested round's callbacks,
and the outer drain runs them in resolve order.

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
``submit_read()`` issues a read or keyed command, and the driver issues
every admin command the same way on an engine pinned to qid 0.  One
function does every (re)submission: a write is one host-codec encode,
anything else one SQE.  Breaker-guarded methods
(inline or fragmented) respect the driver's circuit breaker per
submission and are downgraded to PRP while it is open.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro import datapath
from repro.datapath import names as dp_names
from repro.engine.reactor import CompletionReactor
from repro.engine.scheduler import MultiQueueScheduler
from repro.engine.table import CommandFuture, InFlightCommand, InFlightTable
from repro.host.breaker import STATE_CLOSED
from repro.host.driver import NvmeDriver
from repro.host.errors import DriverError
from repro.nvme.command import NvmeCommand
from repro.nvme.constants import (
    ADMIN_QID,
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

#: Read once: an enum class attribute costs a lookup on every access.
_BANDSLIM_FRAG = VendorOpcode.BANDSLIM_FRAG

#: Specs a read's device→host data return can take.
_READ_SPECS = {name: _ENGINE_SPECS[name] for name in dp_names.READ_METHODS}


def engine_methods() -> tuple:
    """Write paths the engine can drive asynchronously: every spec with
    a host codec, in table order (a submission is one ``encode``)."""
    return tuple(_ENGINE_SPECS)


class EngineSaturatedError(DriverError, QueueFullError):
    """A submission can never be placed (footprint exceeds every queue).

    A :class:`DriverError`, like every request the engine refuses, and a
    :class:`QueueFullError`, like the codecs' own refusal of a payload
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
    KV service, tenants, the crash harness), and ``NvmeDriver.passthru``
    and the driver's admin commands at QD 1.  A write is acked once its
    future resolves OK.  A request that can never succeed raises
    :class:`~repro.host.errors.DriverError` (a ``ValueError``), the same
    class on every path, since ``passthru`` relies on these checks.
    """

    def __init__(self, ssd: OpenSsd, driver: NvmeDriver,
                 queues: Optional[Sequence[int]] = None,
                 qd: int = 8, policy: str = "round_robin",
                 default_nsid: int = DEFAULT_NSID) -> None:
        self.ssd = ssd
        self.driver = driver
        #: Namespace submissions target unless the caller overrides it.
        #: A tenant's engine facade (repro.virt) sets its private nsid
        #: here, so existing loadgen code works unmodified per tenant.
        self.default_nsid = default_nsid
        self.clock = driver.clock
        self.timing = driver.timing
        self.qids: List[int] = list(
            driver.io_qids if queues is None else queues)
        if not self.qids:
            raise DriverError("an engine needs at least one queue")
        #: Host cost of one submission call: the passthrough ioctl for
        #: I/O queues; admin commands are issued in the kernel, so an
        #: engine on the admin queue charges nothing.
        self._submit_ns = (0.0 if self.qids == [ADMIN_QID]
                           else self.timing.passthrough_ns)
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
        self.fetch_lanes = ssd.config.fetch_lanes
        self.table = InFlightTable()
        self.scheduler = MultiQueueScheduler(self.qids, qd, policy)
        self.reactor = CompletionReactor(self)
        self.stats = EngineStats()
        #: Entries awaiting backoff expiry before resubmission.
        self.parked: List[InFlightCommand] = []
        #: Queues with submissions whose doorbell has not been rung yet.
        self._dirty: Set[int] = set()
        #: Resolved futures whose callback has not run yet, in resolve
        #: order, and whether ``_fire`` is draining them.
        self._due: Deque[CommandFuture] = deque()
        self._firing = False
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
            raise DriverError(
                f"unknown engine method {method!r}; "
                f"expected one of {engine_methods()}") from None
        if not payload:
            raise DriverError("engine submissions require a payload")
        if (spec.caps.fragmented
                and not self.ssd.controller.supports(_BANDSLIM_FRAG)):
            raise DriverError(
                "bandslim requires the BandSlimDeviceLayer to be "
                "registered on the controller")
        now = self.clock.now
        future = CommandFuture(stream, len(payload), now)
        # The command fields positionally, in field order (future, spec,
        # opcode, payload, cdw10, cdw11, nsid, stream, first_submit_ns,
        # deadline_ns, then a read's mptr, cdw14, cdw15, prp1, prp2,
        # read_len): matching keywords on a dataclass this wide costs
        # about as much again, once per submission.
        entry = InFlightCommand(
            future, spec, opcode, payload, cdw10, cdw11,
            self.default_nsid if nsid is None else nsid, stream, now,
            now + self.driver.retry_policy.deadline_ns)
        self.stats.submitted += 1
        self._submit_entry(entry)
        return future

    def submit_read(self, read_len: int, opcode: int, cdw10: int = 0,
                    cdw11: int = 0, mptr: int = 0, cdw14: int = 0,
                    cdw15: int = 0, nsid: Optional[int] = None,
                    stream: Optional[int] = None,
                    method: str = dp_names.PRP, prp1: int = 0,
                    prp2: int = 0) -> CommandFuture:
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
        *prp1*/*prp2* are data-pointer operands of a command that names
        its own host memory (an admin Create-CQ/SQ ring base, the
        DBBUF_CONFIG pages); a read's buffer takes PRP1's place.
        """
        if read_len < 0:
            raise DriverError("read_len must be >= 0")
        try:
            spec = _READ_SPECS[method]
        except KeyError:
            raise DriverError(
                f"a read takes 'prp' or 'sgl', not {method!r}") from None
        now = self.clock.now
        future = CommandFuture(stream, 0, now)
        # Positional command fields, in field order (see ``submit``).
        entry = InFlightCommand(
            future, spec, opcode, b"", cdw10, cdw11,
            self.default_nsid if nsid is None else nsid, stream, now,
            now + self.driver.retry_policy.deadline_ns,
            mptr, cdw14, cdw15, prp1, prp2, read_len)
        self.stats.submitted += 1
        self._submit_entry(entry)
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

    def _dispatch(self, entry: InFlightCommand, need: int,
                  fits: Callable[[int], bool]) -> int:
        """The queue *entry* goes to once one has room: a first pick
        found none, so reap (backpressure) and pick again until one
        does.  Refuses a footprint no queue can ever take, and a wait
        with nothing in flight to free capacity."""
        if need > self._max_slots:
            raise EngineSaturatedError(
                f"submission needs {need} SQ slots; no queue is that deep")

        guard = 0
        while True:
            self.stats.backpressure_waits += 1
            resolved = self.poll()
            if resolved == 0 and not self.table and not self.parked:
                raise EngineSaturatedError(
                    f"no queue can accept a {need}-slot submission and "
                    f"nothing is in flight to free capacity")
            guard = guard + 1 if resolved == 0 else 0
            if guard > 10_000:
                raise DriverError(
                    "backpressure loop made no progress (livelock)")
            qid = self.scheduler.pick(entry.stream, fits)
            if qid is not None:
                return qid

    def _submit_entry(self, entry: InFlightCommand,
                      qid: Optional[int] = None) -> None:
        """Drive one (re)submission through the driver, no doorbell: a
        write is one host-codec encode, anything else one SQE.

        With no *qid* the entry is placed first: on the scheduler's
        pick, or, when no queue has room, on the one ``_dispatch``
        frees by reaping under backpressure.

        A read's return buffer is allocated once per entry and reused
        across timeout resubmissions — the retry must land its data in
        the same place the future's copy-out will look.
        """
        if qid is None:
            # The ``_placement`` memo hit, inlined: one per submission.
            try:
                need, fits = self._placements[entry.spec.name,
                                              entry.future.payload_len]
            except KeyError:
                need, fits = self._placement(entry)
            if need <= self._max_slots:
                qid = self.scheduler.pick(entry.stream, fits)
            if qid is None:
                qid = self._dispatch(entry, need, fits)
        driver = self.driver
        spec = entry.spec
        payload = entry.payload
        read_len = entry.read_len
        if payload:
            caps = spec.caps
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
        elif read_len:
            if not entry.read_pages:
                pages = driver.memory.alloc_pages(-(-read_len // PAGE_SIZE))
                entry.read_pages = tuple(pages)
        entry.spec_used = spec
        entry.attempts += 1
        # The submission API call itself (the ioctl; nothing on qid 0).
        self.clock.advance(self._submit_ns)

        # Positional NvmeCommand construction (field order: opcode,
        # flags, cid, nsid, cdw2, cdw3, mptr, prp1, prp2, cdw10..cdw15)
        # — this allocation runs once per (re)submission.
        buffer = entry.read_pages
        cmd = NvmeCommand(entry.opcode, 0, 0, entry.nsid, 0, 0, entry.mptr,
                          buffer[0] if buffer else entry.prp1, entry.prp2,
                          entry.cdw10, entry.cdw11, 0, read_len,
                          entry.cdw14, entry.cdw15)
        if payload:
            # ``submit`` admits only codec-bearing specs; calling the
            # codec directly skips the driver.submit resolve layer.
            cid = spec.host_codec.encode(driver, cmd, payload, qid,
                                         ring=False)
        elif read_len and spec is not self._prp_spec:
            # SGL (§5): read_len bytes into the buffer, then a bit bucket
            # to the next LBA boundary.  The segment page is the CID's,
            # so each retry builds its own.
            mapping = build_read_sgl(driver.memory, buffer[0], read_len,
                                     -read_len % self.ssd.config.lba_bytes)
            cmd.use_sgl()
            desc = mapping.inline.pack()
            cmd.prp1 = int.from_bytes(desc[:8], "little")
            cmd.prp2 = int.from_bytes(desc[8:], "little")
            cid = driver.submit_raw(cmd, qid, ring=False)
            driver.queue(qid).pending_pages[cid] = mapping.segment_pages
        else:
            cid = driver.submit_raw(cmd, qid, ring=False)
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
        """One reactor round, then the callbacks it made due; returns
        futures resolved this round."""
        resolved = self.reactor.poll()
        if self._due and not self._firing:
            self._fire()
        return resolved

    def _fire(self) -> None:
        """Run due callbacks in resolve order until none is left,
        including those queued by rounds the callbacks' own submissions
        poll under backpressure."""
        due = self._due
        self._firing = True
        try:
            while due:
                future = due.popleft()
                future.callback(future)  # type: ignore[misc]
        finally:
            self._firing = False

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
                raise DriverError(
                    f"drain stalled with {len(self.table)} in flight "
                    f"and {len(self.parked)} parked")
        return resolved

    @property
    def inflight(self) -> int:
        return len(self.table)

