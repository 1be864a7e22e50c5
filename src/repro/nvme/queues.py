"""NVMe submission / completion queue rings.

Both rings live in *host* memory (the device reaches them by DMA), exactly
as on the paper's testbed.  The host owns the SQ tail and CQ head; the
device owns the SQ head (reported back through CQEs) and CQ tail.

Ordering discipline (paper §3.3.2, challenge #2): the Linux NVMe driver
serialises SQ insertion with a per-queue spinlock.  ByteExpress relies on
inserting the command *and* its inline chunks under one lock acquisition so
they occupy consecutive slots.  :class:`QueueLock` models that lock and the
submission queue refuses writes when it is not held, turning a would-be
race into a hard test failure.
"""

from __future__ import annotations

from typing import Optional

from repro.host.memory import HostMemory
from repro.nvme.completion import NvmeCompletion
from repro.nvme.constants import CQE_SIZE, PAGE_SIZE, SQE_SIZE


class QueueFullError(Exception):
    """Raised when pushing to a submission queue with no free slots."""


class CqOverrunError(Exception):
    """Raised when a completion would overwrite an unconsumed CQE.

    The CQ has no full/empty doorbell handshake of its own — the
    producer must bound itself by the consumer's progress, learned from
    the CQ-head doorbell.  The controller's producer
    (:meth:`repro.ssd.context.DeviceCqState.post`) applies NVMe's "full
    is one less than the size" rule: it refuses the post that would make
    its tail meet the host head, so at most ``depth - 1`` CQEs are ever
    unconsumed and no live completion is silently destroyed.
    """


class LockNotHeldError(Exception):
    """Raised when the SQ is mutated outside its lock (ordering violation)."""


class QueueLock:
    """Non-reentrant per-queue lock, as in the kernel driver.

    The simulation is single-threaded; the lock exists to *assert* the
    driver's locking discipline rather than to provide mutual exclusion.
    """

    __slots__ = ("_held", "acquisitions")

    def __init__(self) -> None:
        self._held = False
        self.acquisitions = 0

    @property
    def held(self) -> bool:
        return self._held

    def __enter__(self) -> "QueueLock":
        if self._held:
            raise RuntimeError("SQ lock is not reentrant")
        self._held = True
        self.acquisitions += 1
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self._held = False


class SubmissionQueue:
    """Host-side view of one submission queue ring."""

    def __init__(self, qid: int, depth: int, memory: HostMemory) -> None:
        if depth < 2:
            raise ValueError("SQ depth must be at least 2")
        self.qid = qid
        self.depth = depth
        self.memory = memory
        self.base_addr = memory.alloc_buffer(depth * SQE_SIZE)
        #: Views of the ring's host frames (``alloc_buffer`` is
        #: page-aligned and frames never move while mapped):
        #: ``push_raw`` writes a slot in place, and a view refuses an
        #: entry of any other size than the slot's.
        self._frames = [memoryview(memory.frame_at(page)[0]) for page in
                        range(self.base_addr,
                              self.base_addr + depth * SQE_SIZE, PAGE_SIZE)]
        self.tail = 0          # next free slot (host-owned)
        self.head = 0          # last slot the device reported consuming
        #: Device-visible tail, updated only by the doorbell write.
        self.shadow_tail = 0
        self.lock = QueueLock()

    # -- geometry ----------------------------------------------------------
    def slot_addr(self, index: int) -> int:
        return self.base_addr + (index % self.depth) * SQE_SIZE

    def space(self) -> int:
        """Free slots (one slot is always kept open to distinguish full)."""
        return (self.head - self.tail - 1) % self.depth

    def is_full(self) -> bool:
        return self.space() == 0

    # -- host operations -----------------------------------------------------
    def push_raw(self, entry: bytes) -> int:
        """Write one 64 B entry at the tail; returns the slot index used.

        Requires the queue lock to be held — this is the invariant that
        makes ByteExpress's consecutive-slot layout sound.
        """
        if not self.lock._held:
            raise LockNotHeldError(f"SQ{self.qid} written without its lock")
        slot = self.tail
        depth = self.depth
        if (self.head - slot - 1) % depth == 0:
            raise QueueFullError(f"SQ{self.qid} full (depth {depth})")
        # In place: a 64 B slot never straddles a page of the ring.
        at = (slot % depth) * SQE_SIZE
        in_page = at % PAGE_SIZE
        try:
            self._frames[at // PAGE_SIZE][in_page:in_page + SQE_SIZE] = entry
        except ValueError:
            raise ValueError(f"SQ entries are {SQE_SIZE} bytes") from None
        self.tail = (slot + 1) % depth
        return slot

    def ring_doorbell(self) -> int:
        """Publish the current tail to the device; returns the new value.

        Requires the queue lock, like ``push_raw``: the kernel driver
        writes the doorbell inside the same spinlock acquisition that
        inserted the entries, so a ByteExpress CMD+chunk sequence can
        never be published mid-insertion (paper §3 ordering argument).
        """
        if not self.lock._held:
            raise LockNotHeldError(
                f"SQ{self.qid} doorbell rung without its lock")
        self.shadow_tail = self.tail
        return self.shadow_tail

    def note_sq_head(self, head: int) -> None:
        """Apply the SQ-head report from a CQE, freeing consumed slots.

        CQEs processed out of order (or replayed after a fault) can carry
        a head value *older* than one already applied.  Accepting it would
        move ``head`` backwards, inflate :meth:`space`, and let
        ``push_raw`` overwrite slots the device has not consumed — so any
        report outside the current in-flight window ``(head .. tail]`` is
        ignored as stale.
        """
        if not 0 <= head < self.depth:
            raise ValueError(f"SQ head {head} out of range")
        if (head - self.head) % self.depth > (self.tail - self.head) % self.depth:
            return  # stale/backwards report from out-of-order completion
        self.head = head

    # -- persistence (repro.durability) --------------------------------------
    def scrub(self) -> None:
        """Power-loss wipe: pointers to reset values, slots zeroed.

        In place — ``base_addr`` and the lock object survive, so a
        recovered rig re-uses the ring it carved at bring-up instead of
        leaking a fresh allocation per reset.
        """
        self.tail = 0
        self.head = 0
        self.shadow_tail = 0
        self.memory.write(self.base_addr, bytes(self.depth * SQE_SIZE))


class CompletionQueue:
    """Host-side view of one completion queue ring with phase-bit protocol.

    The host only consumes: the device writes CQEs into the ring
    through its own producer state
    (:class:`repro.ssd.context.DeviceCqState`).
    """

    def __init__(self, qid: int, depth: int, memory: HostMemory) -> None:
        if depth < 2:
            raise ValueError("CQ depth must be at least 2")
        self.qid = qid
        self.depth = depth
        self.memory = memory
        self.base_addr = memory.alloc_buffer(depth * CQE_SIZE)
        self.head = 0          # host consume pointer
        self.phase = 1         # phase the host expects for new entries

    # -- host operations -----------------------------------------------------
    def poll(self) -> Optional[NvmeCompletion]:
        """Consume the next completion if its phase bit matches; else None.

        The phase bit lives in bit 0 of DW3's high half-word (byte 14).
        It is tested in place in the ring's host frame, so an empty slot
        costs no copy and no CQE object.  The ring is page-aligned and a
        16 B slot never straddles a page; an unmapped ring raises
        :class:`MemoryError` (:meth:`HostMemory.frame_at`).
        """
        head = self.head
        depth = self.depth
        frame, in_page = self.memory.frame_at(
            self.base_addr + (head % depth) * CQE_SIZE)
        if (frame[in_page + 14] & 1) != self.phase:
            return None
        cqe = NvmeCompletion.unpack_from(frame, in_page)
        self.head = head = (head + 1) % depth
        if head == 0:
            self.phase ^= 1
        return cqe

    # -- persistence (repro.durability) --------------------------------------
    def scrub(self) -> None:
        """Power-loss wipe in place: reset phase protocol, zero slots."""
        self.head = 0
        self.phase = 1
        self.memory.write(self.base_addr, bytes(self.depth * CQE_SIZE))
