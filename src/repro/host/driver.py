"""Host NVMe driver model (the ``nvme_queue_rq`` / passthrough layer).

Owns the queue pairs, the per-queue submission locks, PRP/SGL construction,
doorbell writes and completion handling — the pieces of the Linux driver
the paper touches.  Every write enters through :meth:`NvmeDriver.submit`,
which hands the whole encode to the method's host codec
(:mod:`repro.datapath.codecs`); the ByteExpress change is
:class:`~repro.datapath.codecs.InlineWriteCodec`, mirroring the paper's
<30-line ``nvme_queue_rq`` patch, and everything else here is the stock
driver behaviour.

Every command is an engine submission.  ``passthru`` models the NVMe
passthrough ioctl that KV-SSD and CSD user libraries issue every command
through (paper §2.1), at queue depth 1 as the paper's microbenchmarks
do: one submission to a QD-1 :class:`~repro.engine.IoEngine` per I/O
queue.  Admin commands are keyed ``submit_read`` entries on the same
kind of engine pinned to qid 0, as Linux sends them through blk-mq too.
So the engine's reactor is the one loop that completes and recovers
commands; the driver holds its knobs (:class:`RetryPolicy`, the
:class:`CircuitBreaker`) and the CID lifecycle (allocation, retirement,
quarantine of abandoned CIDs).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro import datapath
from repro.datapath import names as dp_names
from repro.durability.domains import DEVICE_VOLATILE, HOST_VOLATILE
from repro.datapath.spec import DatapathSpec
from repro.faults.plan import DROP_DOORBELL
from repro.host.breaker import CircuitBreaker
from repro.host.errors import CommandTimeoutError, DeviceError, DriverError
from repro.host.shadow import MAX_QID, ShadowDoorbells
from repro.nvme.command import NvmeCommand
from repro.nvme.completion import NvmeCompletion
from repro.nvme.constants import (
    ADMIN_QID,
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

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import IoEngine
    from repro.engine.table import CommandFuture


@dataclass(frozen=True)
class RetryPolicy:
    """Host-side recovery knobs for one command.

    Backoff doubles per attempt in simulated time: attempt *n*
    (1-based) sleeps ``backoff_base_ns * 2**(n-1)`` before its
    resubmission.  ``deadline_ns`` bounds the whole command, attempts
    and backoffs included, from first submission.
    """

    max_attempts: int = 5
    backoff_base_ns: float = 2_000.0
    deadline_ns: float = 10_000_000.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_base_ns < 0:
            raise ValueError("backoff_base_ns must be non-negative")

    def backoff_ns(self, attempt: int) -> float:
        """Backoff before resubmission number *attempt* (1-based)."""
        return self.backoff_base_ns * 2.0 ** (attempt - 1)

    def next_backoff(self, attempts: int, now_ns: float,
                     deadline_ns: float) -> Optional[float]:
        """Backoff before resubmitting a command that has made *attempts*
        attempts, or ``None`` when its budget is spent: no attempts left,
        or the backoff would end past *deadline_ns*.  The engine
        reactor's budget rule, for async and passthrough commands."""
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
    #: BAR offsets of this pair's SQ tail and CQ head doorbells.
    sq_doorbell: int
    cq_doorbell: int
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


#: Admin queue depth used during bring-up.
_ADMIN_DEPTH = 64


class NvmeDriver:
    """The host half of the stack.

    Construction performs the real NVMe bring-up sequence: allocate the
    admin queue pair, program AQA/ASQ/ACQ, set CC.EN and wait for
    CSTS.RDY, Identify the controller, then create each I/O queue pair
    through Create-CQ/Create-SQ admin commands.
    """

    def __init__(self, ssd: OpenSsd) -> None:
        self.ssd = ssd
        self.clock = ssd.clock
        self.timing = ssd.config.timing
        self.link = ssd.link
        self.memory = ssd.host_memory
        self.faults = ssd.faults
        self.retry_policy = RetryPolicy()
        self.breaker = CircuitBreaker()
        # recovery stats
        self.retries = 0
        self.timeouts = 0
        self.inline_fallbacks = 0
        #: Shadow-doorbell pages (None in stock MMIO mode).
        self.shadow: Optional[ShadowDoorbells] = None
        self.shadow_rings = 0
        self.shadow_wakes = 0
        #: Every queue pair by qid: the admin pair is qid 0, the lowest.
        self._queues: Dict[int, _QueueResources] = {}
        #: :meth:`default_qid`'s answer, kept until a queue pair is
        #: created or deleted (None: not known yet).
        self._default_qid: Optional[int] = None
        #: The QD-1 engine per qid (admin and ``passthru``), built lazily.
        self._engines: Dict[int, "IoEngine"] = {}
        #: One payload/stream-id space per driver, shared by every path
        #: that tags a payload (tagged inline chunks, BandSlim streams).
        self._payload_ids = itertools.count(1)
        self._live_payload_ids: Set[int] = set()
        admin = self._queues[ADMIN_QID] = self._make_resources(
            ADMIN_QID, _ADMIN_DEPTH, _ADMIN_DEPTH)
        # Persistence domains: the driver's in-flight command table is
        # host-volatile; SQ/CQ ring *contents* belong to the device's
        # volatile domain (the rings are the protocol's shared state —
        # a power cut tears both sides at once).
        ssd.durability.register("host.driver", HOST_VOLATILE, self)
        ssd.durability.register("nvme.sq0", DEVICE_VOLATILE, admin.sq)
        ssd.durability.register("nvme.cq0", DEVICE_VOLATILE, admin.cq)
        self._enable_controller(admin)
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
        return _QueueResources(sq, cq, sq_doorbell_offset(qid),
                               cq_doorbell_offset(qid))

    def _enable_controller(self, admin: _QueueResources) -> None:
        bar = self.ssd.bar
        bar.write32(REG_AQA, aqa_value(_ADMIN_DEPTH, _ADMIN_DEPTH))
        bar.write32(REG_ASQ_LO, admin.sq.base_addr)
        bar.write32(REG_ACQ_LO, admin.cq.base_addr)
        for reg in (REG_AQA, REG_ASQ_LO, REG_ACQ_LO):
            self.link.host_mmio_write(4, CAT_DOORBELL)
        bar.write32(REG_CC, CC_ENABLE)
        self.link.host_mmio_write(4, CAT_DOORBELL)
        if not bar.read32(REG_CSTS) & CSTS_READY:
            raise DeviceError("controller failed to come ready (CSTS.RDY=0)")

    def _admin_command(self, cmd: NvmeCommand,
                       read_len: int = 0) -> "CommandFuture":
        """Run admin command *cmd*: a keyed QD-1 submission to the admin
        queue's engine, then a drain, so the reactor recovers it as it
        does I/O.  Raises :class:`DeviceError` unless it completes
        successfully; the future carries a *read_len*-byte data return
        (up to the length CQE DW0 reports) in ``data``.
        """
        try:
            engine = self._engines[ADMIN_QID]
        except KeyError:
            from repro.engine.engine import IoEngine

            engine = self._engines[ADMIN_QID] = IoEngine(
                self.ssd, self, queues=(ADMIN_QID,), qd=1)
        future = engine.submit_read(
            read_len, cmd.opcode, cdw10=cmd.cdw10, cdw11=cmd.cdw11,
            nsid=cmd.nsid, prp1=cmd.prp1, prp2=cmd.prp2)
        engine.drain()
        if not future.ok:
            raise DeviceError(
                f"admin opcode {cmd.opcode:#x} (cdw10 {cmd.cdw10:#x}) "
                f"failed: {future.state}, status {future.status}")
        return future

    def _identify_controller(self) -> IdentifyController:
        cmd = NvmeCommand(opcode=AdminOpcode.IDENTIFY, cdw10=1)
        return IdentifyController.unpack(
            self._admin_command(cmd, IDENTIFY_SIZE).data)

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
        self._admin_command(create_cq)
        create_sq = NvmeCommand(
            opcode=AdminOpcode.CREATE_SQ, prp1=res.sq.base_addr,
            cdw10=qid | ((res.sq.depth - 1) << 16),
            cdw11=0b1 | (qid << 16))
        self._admin_command(create_sq)
        self._queues[qid] = res
        self._default_qid = None
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
        ring pages, per-CID pinned pages, CID state, and (under shadow
        doorbells) the pair's shadow slots, so a later reuse of the qid
        starts from a clean slate.
        """
        if qid == ADMIN_QID:
            raise DriverError("the admin queue pair cannot be deleted")
        res = self.queue(qid)
        if res.live_cids:
            raise DriverError(
                f"queue {qid} still has {len(res.live_cids)} command(s) "
                f"in flight")
        for opcode in (AdminOpcode.DELETE_SQ, AdminOpcode.DELETE_CQ):
            self._admin_command(NvmeCommand(opcode=opcode, cdw10=qid))
        del self._queues[qid]
        self._default_qid = None
        self._engines.pop(qid, None)
        self.ssd.durability.unregister(f"nvme.sq{qid}")
        self.ssd.durability.unregister(f"nvme.cq{qid}")
        # No completion can arrive for this queue anymore: quarantined
        # (zombie) CIDs die with it, and their pinned pages are released.
        for pages in res.pending_pages.values():
            for page in pages:
                self.memory.free_page(page)
        self._free_buffer(res.sq.base_addr, res.sq.depth * SQE_SIZE)
        self._free_buffer(res.cq.base_addr, res.cq.depth * CQE_SIZE)
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
        self._admin_command(cmd)
        self.shadow = shadow
        self.ssd.durability.register("host.shadow", HOST_VOLATILE, shadow)

    # ------------------------------------------------------------------
    # persistence (repro.durability)
    # ------------------------------------------------------------------
    # The driver's own volatile surface is the in-flight command table:
    # per-queue CID allocation, zombie quarantine, pinned-page tracking.
    # Queue ring contents have their own registrations (nvme.sq*/cq*).

    def scrub(self) -> None:
        """Power cut: the in-flight table is gone; nothing is pinned
        anymore (the pages themselves are zeroed by the host-memory
        scrub — there is no one left to free them to)."""
        for res in self._queues.values():
            res.next_cid = 0
            res.live_cids.clear()
            res.zombie_cids.clear()
            res.pending_pages.clear()
            res.payload_ids.clear()
        self._live_payload_ids.clear()
        self._engines.clear()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @property
    def io_qids(self) -> List[int]:
        return sorted(self._queues)[1:]  # [0] is the admin pair

    def default_qid(self) -> int:
        """The lowest I/O qid: where a command goes when none is named.

        Sorted once per queue-pair create or delete, not per command:
        every ``passthru`` that names no queue asks.
        """
        qid = self._default_qid
        if qid is None:
            try:
                qid = sorted(self._queues)[1]  # [0] is the admin pair
            except IndexError:
                raise DriverError("no I/O queue exists") from None
            self._default_qid = qid
        return qid

    def queue(self, qid: int) -> _QueueResources:
        try:
            return self._queues[qid]
        except KeyError:
            raise DriverError(f"no such queue: {qid}")

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

        Called from :meth:`reap` right after it polled the CQ empty, so
        every CQE already posted has been consumed.  With nothing in
        flight as well, and the device's SQ head caught up to the
        published tail, any completion the abandoned commands could
        ever produce has already happened.
        """
        if (res.zombie_cids and not res.live_cids
                and res.sq.head == res.sq.tail == res.sq.shadow_tail):
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
        clock = self.clock
        with res.sq.lock:
            _start = clock.now
            try:
                res.sq.push_raw(cmd.pack())
                clock.advance(self.timing.sqe_submit_ns)
            finally:
                clock.span_end("drv.sq_submit", _start)
            if ring:
                self._ring_sq_doorbell(res)

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
                self.ssd.bar.write32(res.sq_doorbell, tail)
            return
        self.link.host_mmio_write(4, CAT_DOORBELL)
        self.clock.advance(self.timing.doorbell_write_ns)
        # ``faults.fire(DROP_DOORBELL)`` with its countdown step inlined.
        left = self.faults.left
        if left[DROP_DOORBELL]:
            left[DROP_DOORBELL] -= 1
        elif self.faults.fire(DROP_DOORBELL):
            # The posted write left the root complex but never landed:
            # the host paid the cost, the device's tail stays stale.
            return
        self.ssd.bar.write32(res.sq_doorbell, tail)

    def _ring_cq_doorbell(self, res: _QueueResources) -> None:
        if self.shadow is not None and res.cq.qid != 0:
            # CQ heads never need a wake: the device only cares when it
            # next posts completions, and it syncs the shadow page then.
            self.shadow.write_cq_head(res.cq.qid, res.cq.head)
            self.clock.advance(self.timing.shadow_db_write_ns)
            return
        self.ssd.bar.write32(res.cq_doorbell, res.cq.head)
        self.link.host_mmio_write(4, CAT_DOORBELL)
        self.clock.advance(self.timing.doorbell_write_ns)

    # ------------------------------------------------------------------
    # submission primitives
    # ------------------------------------------------------------------
    def _codec_spec(self, method) -> DatapathSpec:
        """Resolve *method* (name or spec) through the datapath table to a
        spec that carries a host codec; an unknown or codec-less method
        is a :class:`DriverError`."""
        spec = (method if isinstance(method, DatapathSpec)
                else datapath.resolve(method))
        if spec.host_codec is None:
            raise DriverError(
                f"transfer method {spec.name!r} has no host codec; use its "
                f"orchestration layer in repro.transfer")
        return spec

    def submit(self, method, cmd: NvmeCommand, data: bytes, qid: int,
               ring: bool = True, payload_id: Optional[int] = None) -> int:
        """Generic write submission: encode *data* with *method*'s host
        codec.

        *method* is a method name (``"prp"``, ``"bandslim"``, ...) or a
        :class:`~repro.datapath.spec.DatapathSpec`.  The codec owns the
        whole encode — staging, data-pointer construction, SQE (and chunk
        or fragment) insertion under the SQ lock, the optional doorbell —
        so every method follows one submission shape and new methods need
        no driver edits.  Staged payloads (PRP, SGL) get DMA pages owned
        by the command's CID.  *payload_id* is forwarded to the codecs
        that tag a payload (tagged inline and BandSlim, which allocate an
        id from the driver when none is given).
        """
        return self._codec_spec(method).host_codec.encode(
            self, cmd, data, qid, ring=ring, payload_id=payload_id)

    def submit_raw(self, cmd: NvmeCommand, qid: int,
                   ring: bool = True, expect_completion: bool = True) -> int:
        """Insert a command with no driver-managed data phase (flushes,
        keyed commands, result-fetch commands).

        *expect_completion=False* marks a command whose CQE is suppressed
        by protocol (BandSlim intermediate fragments): its CID is not
        tracked as live, because no completion will ever retire it.
        """
        try:
            res = self._queues[qid]
        except KeyError:
            res = self.queue(qid)  # raises the driver's error
        cmd.cid = self._alloc_cid(res, track=expect_completion)
        self._push_sqe(res, cmd, ring)
        return cmd.cid

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def kick(self, qid: int) -> None:
        """Ring *qid*'s SQ doorbell, publishing any unrung submissions.

        The engine submits with ``ring=False`` and kicks once per batch;
        this is also the timeout-recovery re-ring (republishing the tail
        is idempotent and recovers a dropped doorbell write).
        """
        try:
            res = self._queues[qid]
        except KeyError:
            res = self.queue(qid)  # raises the driver's error
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
        try:
            res = self._queues[qid]
        except KeyError:
            res = self.queue(qid)  # raises the driver's error
        out: List[NvmeCompletion] = []
        poll = res.cq.poll
        while True:
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
        if res.zombie_cids:
            self._maybe_clear_zombies(res)
        return out

    # ------------------------------------------------------------------
    # passthrough ioctl
    # ------------------------------------------------------------------
    def passthru(self, req: PassthruRequest,
                 method: "str | DatapathSpec" = dp_names.PRP,
                 qid: Optional[int] = None) -> PassthruResult:
        """Synchronous NVMe passthrough: the KV-SSD/CSD user-API entry.

        One submission to a QD-1 :class:`~repro.engine.IoEngine` pinned
        to *qid*, then a drain: the ioctl and async I/O share one submit
        path and one completion path, as ``nvme_queue_rq`` does in
        Linux.  *method* names (or is the spec of) any datapath with a
        host codec (``prp``, ``sgl``, ``bandslim``, ``byteexpress``,
        ``byteexpress-tagged``); MMIO and PIO have their own
        orchestration layer in :mod:`repro.transfer` because they do not
        use the queue protocol.  Reads and data-less commands (the
        KV-SSD's keyed RETRIEVE/DELETE/EXIST/LIST, the CSD's result
        fetch) take ``prp`` or ``sgl``; a read's data return is the
        first ``min(result, read_len)`` bytes of its private buffer, and
        an ``sgl`` read discards the rest of the logical block in a bit
        bucket (paper §5) instead of returning it.  *qid* defaults to
        the lowest I/O queue; qid 0 is the admin queue and is refused.

        Recovery is the engine reactor's: re-ring, timeout, backoff,
        breaker fallback, and (qid, cid) completion matching, so a late
        CQE of an abandoned attempt can never acknowledge this command.
        The engine's checks refuse a bad request (unknown method, empty
        write, a read by a write-only method, a payload no queue can
        hold or over MDTS) with a :class:`DriverError`, exactly as it
        refuses an async submission.  A command that never completes
        raises :class:`CommandTimeoutError`, a :class:`DeviceError`.
        """
        if qid is None:
            qid = self.default_qid()
        elif qid == ADMIN_QID:
            raise DriverError("passthru takes an I/O queue, not qid 0")
        try:
            engine = self._engines[qid]
        except KeyError:
            from repro.engine.engine import IoEngine

            engine = self._engines[qid] = IoEngine(
                self.ssd, self, queues=(qid,), qd=1)
        clock = self.clock
        counter = self.link.counter
        start_ns = clock.now
        start_bytes = counter.total_bytes
        name = method.name if isinstance(method, DatapathSpec) else method
        if req.data is not None:  # ``req.is_write``
            # Positional: (payload, method, opcode, cdw10, cdw11, nsid).
            future = engine.submit(req.data, name, req.opcode, req.cdw10,
                                   req.cdw11, req.nsid)
        else:
            future = engine.submit_read(
                req.read_len, req.opcode, cdw10=req.cdw10, cdw11=req.cdw11,
                mptr=req.mptr, cdw14=req.cdw14, cdw15=req.cdw15,
                nsid=req.nsid, method=name)
        engine.drain()
        cqe = future.cqe
        if cqe is None:
            raise CommandTimeoutError(
                f"command on SQ{qid} produced no completion within "
                f"{future.attempts} attempt(s)")
        # Positional, in field order: status, result, data, latency_ns,
        # pcie_bytes.
        return PassthruResult(cqe.status, cqe.result, future.data,
                              clock.now - start_ns,
                              counter.total_bytes - start_bytes)
