"""Host NVMe driver model (the ``nvme_queue_rq`` / passthrough layer).

Owns the queue pairs, the per-queue submission locks, PRP/SGL construction,
doorbell writes and completion handling — the pieces of the Linux driver
the paper touches.  Every write enters through :meth:`NvmeDriver.submit`,
which hands the whole encode to the method's host codec
(:mod:`repro.datapath.codecs`); the ByteExpress change is
:class:`~repro.datapath.codecs.InlineWriteCodec`, mirroring the paper's
<30-line ``nvme_queue_rq`` patch, and everything else here is the stock
driver behaviour.

Synchronous semantics: ``passthru`` models the NVMe passthrough ioctl
that KV-SSD and CSD user libraries issue every command through (paper
§2.1), at queue depth 1, which is how the paper's microbenchmarks issue
their 1 M operations.

Error recovery: ``passthru`` runs a retry/timeout/backoff loop.  A
command that produces no completion gets its doorbell re-rung (which
recovers a lost doorbell); if it is still silent it has timed out
(dropped CQE) and is resubmitted with exponential backoff until the
per-command deadline; completions whose DNR bit is clear (transient
transfer faults) are retried the same way.  After ``threshold``
consecutive failures on a breaker-guarded path (ByteExpress, BandSlim)
a :class:`CircuitBreaker` downgrades submissions to the PRP baseline
until a probe succeeds — fault-tolerant, merely slower.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro import datapath
from repro.datapath import names as dp_names
from repro.durability.domains import DEVICE_VOLATILE, HOST_VOLATILE
from repro.datapath.spec import DatapathSpec
from repro.faults.plan import DROP_DOORBELL
from repro.host.breaker import CircuitBreaker
from repro.host.shadow import MAX_QID, ShadowDoorbells
from repro.pcie.traffic import (
    EVT_BREAKER_TRIP,
    EVT_INLINE_FALLBACK,
    EVT_RETRY,
    EVT_TIMEOUT,
)
from repro.nvme.command import NvmeCommand
from repro.nvme.completion import NvmeCompletion
from repro.nvme.constants import (
    CQE_SIZE,
    PAGE_SIZE,
    SQE_SIZE,
    AdminOpcode,
)
from repro.nvme.identify import IDENTIFY_SIZE, IdentifyController
from repro.nvme.passthrough import PassthruRequest, PassthruResult
from repro.nvme.queues import CompletionQueue, SubmissionQueue
from repro.nvme.registers import (
    CC_ENABLE,
    CSTS_READY,
    REG_ACQ_LO,
    REG_AQA,
    REG_ASQ_LO,
    REG_CC,
    REG_CSTS,
    aqa_value,
)
from repro.pcie.mmio import cq_doorbell_offset, sq_doorbell_offset
from repro.sim.config import DOORBELL_SHADOW
from repro.pcie.traffic import CAT_DOORBELL
from repro.ssd.device import OpenSsd


class DriverError(Exception):
    """Driver-level failures (no completion, bad arguments)."""


class CommandTimeoutError(DriverError):
    """A command exhausted its retry budget or per-command deadline."""


@dataclass(frozen=True)
class RetryPolicy:
    """Host-side recovery knobs for one passthrough command.

    Backoff is exponential in simulated time: attempt *n* (1-based)
    sleeps ``backoff_base_ns * backoff_multiplier**(n-1)`` before its
    resubmission.  ``deadline_ns`` bounds the whole command, attempts
    and backoffs included, from first submission.
    """

    max_attempts: int = 5
    backoff_base_ns: float = 2_000.0
    backoff_multiplier: float = 2.0
    deadline_ns: float = 10_000_000.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_base_ns < 0 or self.backoff_multiplier < 1.0:
            raise ValueError("backoff must be non-negative and non-shrinking")

    def backoff_ns(self, attempt: int) -> float:
        """Backoff before resubmission number *attempt* (1-based)."""
        return self.backoff_base_ns * self.backoff_multiplier ** (attempt - 1)

    def next_backoff(self, attempts: int, now_ns: float,
                     deadline_ns: float) -> Optional[float]:
        """Backoff before resubmitting a command that has made *attempts*
        attempts, or ``None`` when its budget is spent: no attempts left,
        or the backoff would end past *deadline_ns*.  The one budget
        rule of ``passthru`` and the engine's reactor."""
        if attempts >= self.max_attempts:
            return None
        backoff_ns = self.backoff_ns(attempts)
        if now_ns + backoff_ns > deadline_ns:
            return None
        return backoff_ns


@dataclass
class _QueueResources:
    sq: SubmissionQueue
    cq: CompletionQueue
    #: Reusable page-aligned data buffer (sync QD=1 makes reuse safe).
    scratch: int
    scratch_pages: int
    next_cid: int = 0
    #: CIDs currently in flight on this queue.  At QD>1 a CID may not be
    #: reused until its completion arrives (or the host abandons the
    #: command) — a reused CID would make two outstanding commands
    #: indistinguishable in the CQ.
    live_cids: Set[int] = field(default_factory=set)
    #: Quarantined CIDs of *abandoned* commands.  Abandoning releases a
    #: CID the device may still complete (its SQE can sit unfetched
    #: behind a dropped doorbell, or its CQE can arrive late): handing
    #: the CID out again inside that window would let the old command's
    #: CQE resolve the new command.  Zombies stay unallocatable until
    #: their late CQE arrives or the queue fully drains (PR 4 monitor
    #: finding, INV_CID_UNIQUE).
    zombie_cids: Set[int] = field(default_factory=set)
    #: Host pages (PRP/SGL list pages, private data buffers) to release
    #: when the owning CID retires — keyed per CID so that out-of-order
    #: completions at QD>1 free exactly their own pages.
    pending_pages: Dict[int, List[int]] = field(default_factory=dict)
    #: Payload / stream id bound to each in-flight CID (tagged inline
    #: chunks, BandSlim fragment streams): released when the CID
    #: retires, aborted at the controller when the command is abandoned.
    payload_ids: Dict[int, int] = field(default_factory=dict)


#: Scratch buffer size per queue (covers the largest microbench transfer).
_SCRATCH_BYTES = 64 * 1024


#: Admin queue depth used during bring-up.
_ADMIN_DEPTH = 64


class NvmeDriver:
    """The host half of the stack.

    Construction performs the real NVMe bring-up sequence: allocate the
    admin queue pair, program AQA/ASQ/ACQ, set CC.EN and wait for
    CSTS.RDY, Identify the controller, then create each I/O queue pair
    through Create-CQ/Create-SQ admin commands.
    """

    def __init__(self, ssd: OpenSsd, retry_policy: Optional[RetryPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None) -> None:
        self.ssd = ssd
        self.clock = ssd.clock
        self.timing = ssd.config.timing
        self.link = ssd.link
        self.memory = ssd.host_memory
        self.faults = ssd.faults
        self.retry_policy = retry_policy or RetryPolicy()
        self.breaker = breaker or CircuitBreaker()
        # recovery stats
        self.retries = 0
        self.timeouts = 0
        self.inline_fallbacks = 0
        #: Shadow-doorbell pages (None in stock MMIO mode).
        self.shadow: Optional[ShadowDoorbells] = None
        self.shadow_rings = 0
        self.shadow_wakes = 0
        self._queues: Dict[int, _QueueResources] = {}
        #: One payload/stream-id space per driver, shared by every path
        #: that tags a payload (tagged inline chunks, BandSlim streams).
        self._payload_ids = itertools.count(1)
        self._live_payload_ids: Set[int] = set()
        self._admin = self._make_resources(0, _ADMIN_DEPTH, _ADMIN_DEPTH)
        # Persistence domains: the driver's in-flight command table is
        # host-volatile; SQ/CQ ring *contents* belong to the device's
        # volatile domain (the rings are the protocol's shared state —
        # a power cut tears both sides at once).
        ssd.durability.register("host.driver", HOST_VOLATILE, self)
        ssd.durability.register("nvme.sq0", DEVICE_VOLATILE, self._admin.sq)
        ssd.durability.register("nvme.cq0", DEVICE_VOLATILE, self._admin.cq)
        self._enable_controller()
        self.identify = self._identify_controller()
        for qid in range(1, ssd.config.num_io_queues + 1):
            self._create_io_queue_pair(qid)
        if ssd.config.doorbell_mode == DOORBELL_SHADOW:
            self._setup_shadow_doorbells()

    # ------------------------------------------------------------------
    # bring-up
    # ------------------------------------------------------------------
    def _make_resources(self, qid: int, sq_depth: int,
                        cq_depth: int) -> _QueueResources:
        sq = SubmissionQueue(qid, sq_depth, self.memory)
        cq = CompletionQueue(qid, cq_depth, self.memory)
        scratch_pages = _SCRATCH_BYTES // PAGE_SIZE
        scratch = self.memory.alloc_pages(scratch_pages)[0]
        return _QueueResources(sq, cq, scratch, scratch_pages)

    def _enable_controller(self) -> None:
        bar = self.ssd.bar
        bar.write32(REG_AQA, aqa_value(_ADMIN_DEPTH, _ADMIN_DEPTH))
        bar.write32(REG_ASQ_LO, self._admin.sq.base_addr)
        bar.write32(REG_ACQ_LO, self._admin.cq.base_addr)
        for reg in (REG_AQA, REG_ASQ_LO, REG_ACQ_LO):
            self.link.host_mmio_write(4, CAT_DOORBELL)
        bar.write32(REG_CC, CC_ENABLE)
        self.link.host_mmio_write(4, CAT_DOORBELL)
        if not bar.read32(REG_CSTS) & CSTS_READY:
            raise DriverError("controller failed to come ready (CSTS.RDY=0)")

    def _admin_command(self, cmd: NvmeCommand,
                       read_len: int = 0) -> NvmeCompletion:
        """Submit one admin command synchronously."""
        res = self._admin
        cmd.cid = self._alloc_cid(res)
        if read_len:
            if read_len > res.scratch_pages * PAGE_SIZE:
                raise DriverError("admin read exceeds scratch buffer")
            cmd.prp1 = res.scratch
        self._push_sqe(res, cmd)
        for _ in range(3):
            cqe = self._try_wait_on(res)
            if cqe is not None:
                return cqe
            # Lost admin doorbell (bring-up must survive a flaky link):
            # republish the tail and give the device another turn.
            with res.sq.lock:
                self._ring_sq_doorbell(res)
        return self._wait_on(res)

    def _identify_controller(self) -> IdentifyController:
        cmd = NvmeCommand(opcode=AdminOpcode.IDENTIFY, cdw10=1)
        cqe = self._admin_command(cmd, read_len=IDENTIFY_SIZE)
        if not cqe.ok:
            raise DriverError(f"IDENTIFY failed with status {cqe.status:#x}")
        return IdentifyController.unpack(
            self.memory.read(self._admin.scratch, IDENTIFY_SIZE))

    def _create_io_queue_pair(self, qid: int,
                              sq_depth: Optional[int] = None,
                              cq_depth: Optional[int] = None) -> None:
        if qid > self.identify.num_io_queues:
            raise DriverError(
                f"controller supports {self.identify.num_io_queues} I/O "
                f"queues, cannot create qid {qid}")
        res = self._make_resources(qid, sq_depth or self.ssd.config.sq_depth,
                                   cq_depth or self.ssd.config.cq_depth)
        create_cq = NvmeCommand(
            opcode=AdminOpcode.CREATE_CQ, prp1=res.cq.base_addr,
            cdw10=qid | ((res.cq.depth - 1) << 16), cdw11=0b11)
        cqe = self._admin_command(create_cq)
        if not cqe.ok:
            raise DriverError(f"CREATE_CQ {qid} failed: {cqe.status:#x}")
        create_sq = NvmeCommand(
            opcode=AdminOpcode.CREATE_SQ, prp1=res.sq.base_addr,
            cdw10=qid | ((res.sq.depth - 1) << 16),
            cdw11=0b1 | (qid << 16))
        cqe = self._admin_command(create_sq)
        if not cqe.ok:
            raise DriverError(f"CREATE_SQ {qid} failed: {cqe.status:#x}")
        self._queues[qid] = res
        self.ssd.durability.register(f"nvme.sq{qid}", DEVICE_VOLATILE, res.sq)
        self.ssd.durability.register(f"nvme.cq{qid}", DEVICE_VOLATILE, res.cq)

    # ------------------------------------------------------------------
    # queue-pair lifecycle (runtime — repro.virt tenant provisioning)
    # ------------------------------------------------------------------
    def create_io_queue_pair(self, qid: Optional[int] = None,
                             sq_depth: Optional[int] = None,
                             cq_depth: Optional[int] = None) -> int:
        """Create an I/O queue pair at runtime; returns its qid.

        Same Create-CQ/Create-SQ admin sequence as bring-up.  *qid*
        defaults to the next free id; depths default to the rig config.
        Under shadow doorbells the qid must fit the shadow page's slot
        array (``MAX_QID``) — scale-out rigs use MMIO doorbells.
        """
        if qid is None:
            qid = max(self._queues, default=0) + 1
        if qid < 1:
            raise DriverError("I/O queue ids start at 1")
        if qid in self._queues:
            raise DriverError(f"I/O queue {qid} already exists")
        if self.shadow is not None and qid > MAX_QID:
            raise DriverError(
                f"qid {qid} exceeds the shadow-doorbell slot array "
                f"(MAX_QID={MAX_QID}); use MMIO doorbells to scale past it")
        self._create_io_queue_pair(qid, sq_depth=sq_depth, cq_depth=cq_depth)
        return qid

    def delete_io_queue_pair(self, qid: int) -> None:
        """Tear down I/O queue pair *qid*: Delete-SQ then Delete-CQ admin
        commands, then release every host resource the pair pinned —
        ring pages, the scratch buffer, per-CID pinned pages, CID state,
        and (under shadow doorbells) the pair's shadow slots, so a later
        reuse of the qid starts from a clean slate.
        """
        res = self.queue(qid)
        if res.live_cids:
            raise DriverError(
                f"queue {qid} still has {len(res.live_cids)} command(s) "
                f"in flight")
        for opcode, name in ((AdminOpcode.DELETE_SQ, "DELETE_SQ"),
                             (AdminOpcode.DELETE_CQ, "DELETE_CQ")):
            cqe = self._admin_command(NvmeCommand(opcode=opcode, cdw10=qid))
            if not cqe.ok:
                raise DriverError(f"{name} {qid} failed: {cqe.status:#x}")
        del self._queues[qid]
        self.ssd.durability.unregister(f"nvme.sq{qid}")
        self.ssd.durability.unregister(f"nvme.cq{qid}")
        # No completion can arrive for this queue anymore: quarantined
        # (zombie) CIDs die with it, and their pinned pages are released.
        for pages in res.pending_pages.values():
            for page in pages:
                self.memory.free_page(page)
        self._free_buffer(res.sq.base_addr, res.sq.depth * SQE_SIZE)
        self._free_buffer(res.cq.base_addr, res.cq.depth * CQE_SIZE)
        self._free_buffer(res.scratch, res.scratch_pages * PAGE_SIZE)
        if self.shadow is not None and qid <= MAX_QID:
            # Zero the slots: a reused qid must not inherit a stale tail.
            self.shadow.write_sq_tail(qid, 0)
            self.shadow.write_cq_head(qid, 0)
            self.shadow.write_sq_eventidx(qid, 0)

    def _free_buffer(self, base: int, nbytes: int) -> None:
        """Release a page-aligned buffer allocated with ``alloc_buffer``."""
        for i in range(max(1, (nbytes + PAGE_SIZE - 1) // PAGE_SIZE)):
            self.memory.free_page(base + i * PAGE_SIZE)

    def _setup_shadow_doorbells(self) -> None:
        """Arm shadow doorbells: allocate the shadow + eventidx pages
        and register them with a Doorbell Buffer Config admin command.

        After this, I/O doorbell updates become plain host-memory stores
        the controller DMA-reads on its next wake-up; a BAR write
        survives only as the wake path for a parked device.  The admin
        queue keeps MMIO doorbells throughout.
        """
        shadow = ShadowDoorbells(self.memory)
        cmd = NvmeCommand(opcode=AdminOpcode.DBBUF_CONFIG,
                          prp1=shadow.shadow_addr,
                          prp2=shadow.eventidx_addr)
        cqe = self._admin_command(cmd)
        if not cqe.ok:
            raise DriverError(
                f"DBBUF_CONFIG failed with status {cqe.status:#x}")
        self.shadow = shadow
        self.ssd.durability.register("host.shadow", HOST_VOLATILE, shadow)

    # ------------------------------------------------------------------
    # persistence (repro.durability)
    # ------------------------------------------------------------------
    # The driver's own volatile surface is the in-flight command table:
    # per-queue CID allocation, zombie quarantine, pinned-page tracking.
    # Queue ring contents have their own registrations (nvme.sq*/cq*).

    def _all_resources(self) -> List[Tuple[int, _QueueResources]]:
        return [(0, self._admin)] + sorted(self._queues.items())

    def snapshot(self) -> object:
        return {qid: (res.next_cid, set(res.live_cids),
                      set(res.zombie_cids),
                      {cid: list(p) for cid, p in res.pending_pages.items()},
                      dict(res.payload_ids))
                for qid, res in self._all_resources()}

    def restore(self, state: object) -> None:
        assert isinstance(state, dict)
        for qid, res in self._all_resources():
            if qid not in state:
                continue
            next_cid, live, zombie, pending, payload_ids = state[qid]
            res.next_cid = next_cid
            res.live_cids = set(live)
            res.zombie_cids = set(zombie)
            res.pending_pages = {cid: list(p) for cid, p in pending.items()}
            res.payload_ids = dict(payload_ids)
        self._live_payload_ids = {
            pid for _qid, res in self._all_resources()
            for pid in res.payload_ids.values()}

    def scrub(self) -> None:
        """Power cut: the in-flight table is gone; nothing is pinned
        anymore (the pages themselves are zeroed by the host-memory
        scrub — there is no one left to free them to)."""
        for _qid, res in self._all_resources():
            res.next_cid = 0
            res.live_cids.clear()
            res.zombie_cids.clear()
            res.pending_pages.clear()
            res.payload_ids.clear()
        self._live_payload_ids.clear()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @property
    def io_qids(self) -> List[int]:
        return sorted(self._queues)

    def queue(self, qid: int) -> _QueueResources:
        try:
            return self._queues[qid]
        except KeyError:
            raise DriverError(f"no such I/O queue: {qid}")

    def _alloc_cid(self, res: _QueueResources, track: bool = True) -> int:
        """Hand out the next CID that is not in flight on this queue.

        A CID identifies an outstanding command; reusing one before its
        completion arrives would make the matching CQE ambiguous, so live
        CIDs are skipped.  Exhaustion (the whole 16-bit space in flight)
        raises instead of silently aliasing — it indicates a leak or a
        pathological queue depth, never a condition to paper over.

        *track=False* hands out a CID without marking it live: for
        commands that by protocol produce no completion of their own
        (BandSlim intermediate fragments are acknowledged only through
        the final fragment's CQE).
        """
        live = res.live_cids
        zombie = res.zombie_cids
        if ((len(live) + len(zombie) if zombie else len(live))
                >= 0xFFFF):
            raise DriverError(
                f"CID space exhausted on SQ{res.sq.qid}: "
                f"{len(live)} in flight + "
                f"{len(zombie)} quarantined")
        cid = res.next_cid
        while cid in live or cid in zombie:
            cid = (cid + 1) & 0xFFFF
        res.next_cid = (cid + 1) & 0xFFFF
        if track:
            live.add(cid)
        return cid

    def _retire_cid(self, res: _QueueResources, cid: int) -> None:
        """Release a CID and any host pages pinned for its command.

        Idempotent: retiring an already-retired CID (a stale or duplicate
        CQE, or an abandoned attempt that later completes) is harmless.
        """
        res.live_cids.discard(cid)
        # A CQE for a quarantined CID is the late completion the
        # quarantine was waiting for: the CID is provably out of the
        # device now, so it leaves the zombie set too.
        if res.zombie_cids:
            res.zombie_cids.discard(cid)
        if res.pending_pages:
            for page in res.pending_pages.pop(cid, ()):
                self.memory.free_page(page)
        if res.payload_ids:
            self._live_payload_ids.discard(res.payload_ids.pop(cid, 0))

    def _abandon_cid(self, res: _QueueResources, cid: int) -> None:
        """Release an abandoned command's CID into quarantine.

        Unlike :meth:`_retire_cid` (called when a CQE proves the command
        left the device), abandonment happens while the device may still
        hold the command — its SQE unfetched behind a lost doorbell, or
        its CQE delayed.  Reusing the CID inside that window would make
        the late CQE resolve the *new* command, so the CID is parked in
        ``zombie_cids`` until the late CQE arrives or the queue drains.
        A payload id bound to the command is aborted at the controller,
        so half-received reassembly state cannot pin device SRAM.
        """
        pid = res.payload_ids.get(cid)
        if pid is not None:
            self.ssd.controller.abort_payload(pid)
        self._retire_cid(res, cid)
        res.zombie_cids.add(cid)

    def _maybe_clear_zombies(self, res: _QueueResources) -> None:
        """Lift the quarantine once no late CQE can exist.

        With nothing in flight, the device's SQ head caught up to the
        published tail, and every posted CQE consumed, any completion
        the abandoned commands could ever produce has already happened.
        """
        if (res.zombie_cids and not res.live_cids
                and res.sq.head == res.sq.tail == res.sq.shadow_tail
                and res.cq.outstanding == 0):
            res.zombie_cids.clear()

    def inflight(self, qid: int) -> int:
        """Commands currently outstanding on *qid* (live CIDs)."""
        return len(self.queue(qid).live_cids)

    def retire(self, qid: int, cid: int) -> None:
        """Abandon an outstanding command: release its CID and pages.

        The engine's timeout path calls this before resubmitting under a
        fresh CID — if the original CQE was lost for good, nothing else
        will ever retire the old one.  The CID enters quarantine (see
        ``zombie_cids``) rather than the free pool: the device may still
        complete the abandoned command.  Idempotent, like
        :meth:`_retire_cid`.
        """
        self._abandon_cid(self.queue(qid), cid)

    def _bind_payload_id(self, res: _QueueResources, cid: int,
                         payload_id: Optional[int] = None) -> int:
        """Bind a payload / stream id to *cid* for the command's lifetime.

        ``None`` allocates the next id not live on this driver (zero is
        never handed out).  The binding ends with the CID: retirement
        releases the id, abandonment also aborts it at the controller.
        """
        live = self._live_payload_ids
        if payload_id is None:
            payload_id = next(self._payload_ids) & 0xFFFFFFFF
            while not payload_id or payload_id in live:
                payload_id = next(self._payload_ids) & 0xFFFFFFFF
        live.add(payload_id)
        res.payload_ids[cid] = payload_id
        return payload_id

    def _push_sqe(self, res: _QueueResources, cmd: NvmeCommand,
                  ring: bool = True) -> None:
        """Insert one SQE under the SQ lock and optionally ring.

        The insertion (and its host CPU cost) is the ``drv.sq_submit``
        phase; the doorbell is written under the same lock acquisition.
        """
        with res.sq.lock:
            with self.clock.span("drv.sq_submit"):
                res.sq.push_raw(cmd.pack())
                self.clock.advance(self.timing.sqe_submit_ns)
            if ring:
                self._ring_sq_doorbell(res)

    def _stage_data(self, res: _QueueResources, data: bytes) -> int:
        """Copy the user payload into the queue's DMA-able scratch buffer."""
        if len(data) > res.scratch_pages * PAGE_SIZE:
            raise DriverError(
                f"payload of {len(data)} B exceeds scratch buffer")
        self.memory.write(res.scratch, data)
        return res.scratch

    def _ring_sq_doorbell(self, res: _QueueResources) -> None:
        """Publish the SQ tail.

        Stock MMIO mode: one posted 4-byte BAR write (one TLP).  Shadow
        mode (I/O queues only): a plain store into the shadow page —
        no TLP at all — escalated to a BAR wake only when the
        device-published park record says the controller stopped
        polling and the eventidx test says it has not seen this tail.

        Must be called with ``res.sq.lock`` held (the real driver writes
        the doorbell under the same spinlock acquisition that inserted
        the entries — releasing first would let another CPU publish a
        tail that skips our entries).
        """
        old_tail = res.sq.shadow_tail
        # Lock is held by every caller (documented contract above);
        # ring_doorbell() itself raises LockNotHeldError if not.
        tail = res.sq.ring_doorbell()  # verify: ignore[VER103]
        qid = res.sq.qid
        if self.shadow is not None and qid != 0:
            self.clock.advance(self.timing.shadow_db_write_ns)
            if self.faults.fire(DROP_DOORBELL):
                # The tail store stalled before becoming visible to the
                # device (model of a torn/not-yet-flushed publication):
                # the shadow page keeps the stale value and only the
                # timeout re-ring — which repeats this store — recovers.
                return
            self.shadow.write_sq_tail(qid, tail)
            self.shadow_rings += 1
            if self.shadow.needs_mmio_wake(qid, old_tail, tail,
                                           res.sq.depth, self.clock.now):
                self.link.host_mmio_write(4, CAT_DOORBELL)
                self.clock.advance(self.timing.doorbell_write_ns)
                self.shadow_wakes += 1
                self.ssd.bar.write32(sq_doorbell_offset(qid), tail)
            return
        self.link.host_mmio_write(4, CAT_DOORBELL)
        self.clock.advance(self.timing.doorbell_write_ns)
        if self.faults.fire(DROP_DOORBELL):
            # The posted write left the root complex but never landed:
            # the host paid the cost, the device's tail stays stale.
            return
        self.ssd.bar.write32(sq_doorbell_offset(qid), tail)

    def _ring_cq_doorbell(self, res: _QueueResources) -> None:
        if self.shadow is not None and res.cq.qid != 0:
            # CQ heads never need a wake: the device only cares when it
            # next posts completions, and it syncs the shadow page then.
            self.shadow.write_cq_head(res.cq.qid, res.cq.head)
            self.clock.advance(self.timing.shadow_db_write_ns)
            return
        self.ssd.bar.write32(cq_doorbell_offset(res.cq.qid), res.cq.head)
        self.link.host_mmio_write(4, CAT_DOORBELL)
        self.clock.advance(self.timing.doorbell_write_ns)

    # ------------------------------------------------------------------
    # submission primitives
    # ------------------------------------------------------------------
    def _resolve_spec(self, method) -> DatapathSpec:
        """Resolve *method* (name or spec) through the datapath table,
        translating lookup failures into the driver's exception type."""
        if isinstance(method, DatapathSpec):
            return method
        try:
            return datapath.resolve(method)
        except datapath.UnknownMethodError as exc:
            raise DriverError(str(exc)) from None

    def submit(self, method, cmd: NvmeCommand, data: bytes, qid: int,
               ring: bool = True, private_buffer: bool = False,
               payload_id: Optional[int] = None) -> int:
        """Generic write submission: encode *data* with *method*'s host
        codec.

        *method* is a method name (``"prp"``, ``"bandslim"``, ...) or a
        :class:`~repro.datapath.spec.DatapathSpec`.  The codec owns the
        whole encode — staging, data-pointer construction, SQE (and chunk
        or fragment) insertion under the SQ lock, the optional doorbell —
        so every method follows one submission shape and new methods need
        no driver edits.  *private_buffer* and *payload_id* are forwarded
        to codecs that use them (PRP at QD>1; tagged inline and BandSlim,
        which allocate an id from the driver when none is given).
        """
        spec = self._resolve_spec(method)
        codec = spec.host_codec
        if codec is None:
            raise DriverError(
                f"transfer method {spec.name!r} has no host codec; use its "
                f"orchestration layer in repro.transfer")
        return codec.encode(self, cmd, data, qid, ring=ring,
                            private_buffer=private_buffer,
                            payload_id=payload_id)

    def submit_raw(self, cmd: NvmeCommand, qid: int,
                   ring: bool = True, expect_completion: bool = True) -> int:
        """Insert a command with no driver-managed data phase (flushes,
        keyed commands, result-fetch commands).

        *expect_completion=False* marks a command whose CQE is suppressed
        by protocol (BandSlim intermediate fragments): its CID is not
        tracked as live, because no completion will ever retire it.
        """
        res = self.queue(qid)
        cmd.cid = self._alloc_cid(res, track=expect_completion)
        self._push_sqe(res, cmd, ring)
        return cmd.cid

    def submit_read_sgl(self, cmd: NvmeCommand, want: int, total: int,
                        qid: int, ring: bool = True) -> Tuple[int, int]:
        """Small-read optimisation (§5): receive the first *want* bytes of
        a *total*-byte (LBA-granular) read; a bit-bucket descriptor
        discards the rest on the device, saving the return traffic.

        Returns (cid, buffer_addr).
        """
        from repro.nvme.sgl import build_read_sgl

        res = self.queue(qid)
        if want > res.scratch_pages * PAGE_SIZE:
            raise DriverError(f"read of {want} B exceeds scratch buffer")
        if total < want:
            raise DriverError("total read length smaller than wanted bytes")
        mapping = build_read_sgl(self.memory, res.scratch, want,
                                 total - want)
        cmd.cid = self._alloc_cid(res)
        res.pending_pages.setdefault(cmd.cid, []).extend(mapping.segment_pages)
        cmd.use_sgl()
        desc = mapping.inline.pack()
        cmd.prp1 = int.from_bytes(desc[:8], "little")
        cmd.prp2 = int.from_bytes(desc[8:], "little")
        cmd.cdw13 = total
        self._push_sqe(res, cmd, ring)
        return cmd.cid, res.scratch

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def wait(self, qid: int) -> NvmeCompletion:
        """Drive the device until one completion arrives on *qid*."""
        return self._wait_on(self.queue(qid))

    def kick(self, qid: int) -> None:
        """Ring *qid*'s SQ doorbell, publishing any unrung submissions.

        The engine submits with ``ring=False`` and kicks once per batch;
        this is also the timeout-recovery re-ring (republishing the tail
        is idempotent and recovers a dropped doorbell write).
        """
        res = self.queue(qid)
        with res.sq.lock:
            self._ring_sq_doorbell(res)

    def reap(self, qid: int) -> List[NvmeCompletion]:
        """Drain every visible CQE from *qid* without blocking.

        Pure completion-side harvesting for the reactor: never drives the
        device.  Each CQE pays host handling cost, applies the SQ-head
        report, and retires its CID (freeing that command's pinned
        pages).  The CQ doorbell is rung once per batch — the head
        publication amortises exactly as interrupt-coalesced drivers do.
        """
        return self._reap(self.queue(qid))

    def _reap(self, res: _QueueResources,
              limit: Optional[int] = None) -> List[NvmeCompletion]:
        out: List[NvmeCompletion] = []
        poll = res.cq.poll
        while limit is None or len(out) < limit:
            cqe = poll()
            if cqe is None:
                break
            out.append(cqe)
        if out:
            # Batched harvesting: the whole drain was collected above;
            # handling cost, SQ-head reports, the CQ doorbell and CID
            # retirement are applied in one pass.  One span covers the
            # batch (span *totals* are what the phase breakdowns
            # consume), and ``advance_repeat`` keeps the clock arithmetic
            # bit-identical to a per-CQE loop.
            clock = self.clock
            _start = clock.now
            try:
                clock.advance_repeat(self.timing.completion_handle_ns,
                                     len(out))
                note_sq_head = res.sq.note_sq_head
                for cqe in out:
                    note_sq_head(cqe.sq_head)
                self._ring_cq_doorbell(res)
            finally:
                clock.span_end("drv.completion", _start)
            for cqe in out:
                self._retire_cid(res, cqe.cid)
        self._maybe_clear_zombies(res)
        return out

    def _try_wait_on(self,
                     res: _QueueResources) -> Optional[NvmeCompletion]:
        """Drive the device if the CQ is empty, then reap one CQE;
        ``None`` means nothing arrived.

        The device model runs to quiescence inside ``process_all``, so an
        empty CQ afterwards is genuine silence: nothing further will
        arrive without new host action (re-ring, resubmit).
        """
        if res.cq.peek() is None:
            self.ssd.controller.process_all()
        out = self._reap(res, 1)
        return out[0] if out else None

    def _wait_on(self, res: _QueueResources) -> NvmeCompletion:
        cqe = self._try_wait_on(res)
        if cqe is None:
            raise DriverError(f"no completion arrived on CQ{res.cq.qid}")
        return cqe

    # ------------------------------------------------------------------
    # passthrough ioctl
    # ------------------------------------------------------------------
    def _fall_back_to_prp(self) -> DatapathSpec:
        """Breaker open: count the fallback and return the stock PRP
        spec the attempt rides instead (``passthru`` and the engine)."""
        self.inline_fallbacks += 1
        self.link.counter.record_event(EVT_INLINE_FALLBACK)
        return self._resolve_spec(dp_names.PRP)

    def passthru(self, req: PassthruRequest,
                 method: "str | DatapathSpec" = dp_names.PRP,
                 qid: Optional[int] = None) -> PassthruResult:
        """Synchronous NVMe passthrough: the KV-SSD/CSD user-API entry.

        *method* names (or is the spec of) any datapath with a host
        codec (``prp``, ``sgl``, ``bandslim``, ``byteexpress``,
        ``byteexpress-tagged``); the write is one :meth:`submit` per
        attempt.  MMIO and PIO have their own orchestration layer in
        :mod:`repro.transfer` because they do not use the queue
        protocol.  Reads and data-less commands (the KV-SSD's keyed
        RETRIEVE/DELETE/EXIST/LIST, the CSD's result fetch) ignore
        *method*: each attempt is one SQE, and a read's data return
        lands in the queue's scratch buffer.

        Recovery is built in.  No completion after the device ran to
        quiescence first re-rings the doorbell — recovering a lost tail
        update — and repolls; a command still silent after that has
        timed out.  Timeouts, and error completions whose DNR bit is
        clear, are resubmitted with exponential backoff until
        ``retry_policy`` runs out of attempts or deadline; the abandoned
        attempt's CID is quarantined and its payload id aborted at the
        controller.  Breaker-guarded submissions (inline or fragmented)
        consult the circuit breaker and are downgraded to the PRP
        baseline while it is open.
        """
        qid = qid if qid is not None else self.io_qids[0]
        res = self.queue(qid)
        if req.read_len > res.scratch_pages * PAGE_SIZE:
            raise DriverError(
                f"read of {req.read_len} B exceeds scratch buffer")
        start_ns = self.clock.now
        start_bytes = self.link.counter.total_bytes
        self.clock.advance(self.timing.passthrough_ns)
        policy = self.retry_policy
        deadline_ns = start_ns + policy.deadline_ns

        # Resolve the datapath lazily: reads ignore *method* (they always
        # return over PRP/SGL read submissions), so an unknown name only
        # matters when a write will actually encode with it.
        spec = self._resolve_spec(method) if req.is_write else None
        guarded = spec is not None and spec.caps.breaker_guarded
        if guarded and not self.breaker.allow_inline():
            spec = self._fall_back_to_prp()
            guarded = False

        attempt = 0
        cqe: Optional[NvmeCompletion] = None
        prev_cid: Optional[int] = None
        while True:
            attempt += 1
            if prev_cid is not None:
                # The previous attempt is abandoned; if its CQE was lost
                # for good, nothing else will ever retire the CID — and
                # if it was merely delayed, quarantine keeps the CID
                # unallocatable until the late CQE lands.
                self._abandon_cid(res, prev_cid)
            cmd = NvmeCommand(opcode=req.opcode, nsid=req.nsid,
                              mptr=req.mptr,
                              cdw10=req.cdw10, cdw11=req.cdw11,
                              cdw12=req.cdw12, cdw13=req.cdw13,
                              cdw14=req.cdw14, cdw15=req.cdw15)
            if req.is_write:
                prev_cid = self.submit(spec, cmd, req.data, qid)
            else:
                if req.read_len:
                    # The data return lands in the queue's scratch
                    # buffer: safe, since passthru runs at QD 1.
                    cmd.prp1 = res.scratch
                    cmd.cdw13 = req.read_len
                prev_cid = self.submit_raw(cmd, qid)

            cqe = self._try_wait_on(res)
            if cqe is None:
                # No completion: the doorbell (or the command) was lost.
                # Republish the tail — idempotent, and exactly what
                # recovers a dropped doorbell write — and repoll.  Only a
                # command still silent after that has timed out.
                with res.sq.lock:
                    self._ring_sq_doorbell(res)
                cqe = self._try_wait_on(res)
                if cqe is None:
                    self.timeouts += 1
                    self.link.counter.record_event(EVT_TIMEOUT)

            if cqe is not None and cqe.ok:
                if guarded:
                    self.breaker.record_success()
                break

            retryable = cqe is None or cqe.retryable
            if guarded and retryable:
                # Transient transfer fault on a guarded path; semantic
                # errors (DNR set) would fail on PRP too and do not
                # count against the breaker.
                if self.breaker.record_failure():
                    self.link.counter.record_event(EVT_BREAKER_TRIP)

            if not retryable:
                break  # DNR set: retrying cannot change the outcome
            backoff_ns = policy.next_backoff(attempt, self.clock.now,
                                             deadline_ns)
            if backoff_ns is None:
                break
            self.clock.advance(backoff_ns)
            self.retries += 1
            self.link.counter.record_event(EVT_RETRY)
            if guarded and not self.breaker.allow_inline():
                # The breaker opened mid-command: finish on the stock
                # path, which no inline fault can touch.
                spec = self._fall_back_to_prp()
                guarded = False

        if cqe is None:
            # The last attempt is abandoned too: quarantine its CID and
            # abort its payload id, as a retry would have.
            self._abandon_cid(res, prev_cid)
            raise CommandTimeoutError(
                f"command on SQ{qid} produced no completion within "
                f"{attempt} attempt(s)")
        data = None
        if req.read_len and cqe.ok:
            data = self.memory.read(res.scratch, req.read_len)
        return PassthruResult(
            status=cqe.status, result=cqe.result, data=data,
            latency_ns=self.clock.now - start_ns,
            pcie_bytes=self.link.counter.total_bytes - start_bytes)
