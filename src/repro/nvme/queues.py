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

from typing import Dict, List, Optional

from repro.host.memory import HostMemory
from repro.nvme.completion import NvmeCompletion
from repro.nvme.constants import CQE_SIZE, SQE_SIZE


class QueueFullError(Exception):
    """Raised when pushing to a submission queue with no free slots."""


class CqOverrunError(Exception):
    """Raised when a completion would overwrite an unconsumed CQE.

    The CQ has no full/empty doorbell handshake of its own — the
    producer must bound itself by the consumer's progress.  Posting a
    ``depth+1``-th unconsumed entry silently destroys a live completion
    (the host would never learn its command finished), so both the
    host-side ring model here and the controller's device-side producer
    state refuse it loudly.
    """


class LockNotHeldError(Exception):
    """Raised when the SQ is mutated outside its lock (ordering violation)."""


class QueueLock:
    """Non-reentrant per-queue lock, as in the kernel driver.

    The simulation is single-threaded; the lock exists to *assert* the
    driver's locking discipline rather than to provide mutual exclusion.
    """

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

    def __exit__(self, *exc: object) -> None:
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
        if len(entry) != SQE_SIZE:
            raise ValueError(f"SQ entries are {SQE_SIZE} bytes")
        slot = self.tail
        depth = self.depth
        if (self.head - slot - 1) % depth == 0:
            raise QueueFullError(f"SQ{self.qid} full (depth {depth})")
        self.memory.write(self.base_addr + (slot % depth) * SQE_SIZE, entry)
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

    # -- device operations --------------------------------------------------
    def device_pending(self, device_head: int) -> int:
        """Entries between the device's head and the doorbell'd tail."""
        return (self.shadow_tail - device_head) % self.depth

    # -- persistence (repro.durability) --------------------------------------
    def snapshot(self) -> object:
        """Self-contained ring image: pointers plus the SQE slot bytes."""
        state: Dict[str, object] = {
            "tail": self.tail,
            "head": self.head,
            "shadow_tail": self.shadow_tail,
            "ring": self.memory.read(self.base_addr,
                                     self.depth * SQE_SIZE),
        }
        return state

    def restore(self, state: object) -> None:
        assert isinstance(state, dict)
        self.tail = int(state["tail"])  # type: ignore[arg-type]
        self.head = int(state["head"])  # type: ignore[arg-type]
        self.shadow_tail = int(state["shadow_tail"])  # type: ignore[arg-type]
        ring = state["ring"]
        assert isinstance(ring, bytes)
        self.memory.write(self.base_addr, ring)

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
    """Host-side view of one completion queue ring with phase-bit protocol."""

    def __init__(self, qid: int, depth: int, memory: HostMemory) -> None:
        if depth < 2:
            raise ValueError("CQ depth must be at least 2")
        self.qid = qid
        self.depth = depth
        self.memory = memory
        self.base_addr = memory.alloc_buffer(depth * CQE_SIZE)
        self.head = 0          # host consume pointer
        self.phase = 1         # phase the host expects for new entries
        #: Device-side producer state.
        self.device_tail = 0
        self.device_phase = 1
        #: Posted-but-unconsumed completions currently in the ring.
        #: The phase-bit protocol lets the ring hold *depth* of them
        #: (no slot is sacrificed); one more would overwrite a live CQE.
        self.outstanding = 0

    def slot_addr(self, index: int) -> int:
        return self.base_addr + (index % self.depth) * CQE_SIZE

    # -- device operations ---------------------------------------------------
    def device_post(self, cqe: NvmeCompletion) -> int:
        """Device writes a completion at its tail; returns the slot used.

        Refuses to overwrite an unconsumed CQE: with ``depth`` entries
        already posted and none polled, the next write would land on a
        completion the host has not seen yet and lose it silently
        (the bug class the PR 4 protocol monitor was built to catch).
        """
        if self.outstanding >= self.depth:
            raise CqOverrunError(
                f"CQ{self.qid} overrun: {self.outstanding} unconsumed "
                f"CQEs already fill the {self.depth}-deep ring")
        cqe.phase = self.device_phase
        slot = self.device_tail
        self.memory.write(self.slot_addr(slot), cqe.pack())
        self.device_tail = (self.device_tail + 1) % self.depth
        if self.device_tail == 0:
            self.device_phase ^= 1
        self.outstanding += 1
        return slot

    # -- host operations -----------------------------------------------------
    def poll(self) -> Optional[NvmeCompletion]:
        """Consume the next completion if its phase bit matches; else None."""
        head = self.head
        depth = self.depth
        raw = self.memory.read(self.base_addr + (head % depth) * CQE_SIZE,
                               CQE_SIZE)
        # Phase bit lives in bit 0 of DW3's high half-word (byte 14):
        # check it on the raw bytes so an empty slot costs no CQE object.
        if (raw[14] & 1) != self.phase:
            return None
        cqe = NvmeCompletion.unpack(raw)
        self.head = head = (head + 1) % depth
        if head == 0:
            self.phase ^= 1
        if self.outstanding > 0:
            self.outstanding -= 1
        return cqe

    def drain(self, limit: Optional[int] = None) -> List[NvmeCompletion]:
        """Consume all currently visible completions (up to *limit*)."""
        out: List[NvmeCompletion] = []
        while limit is None or len(out) < limit:
            cqe = self.poll()
            if cqe is None:
                break
            out.append(cqe)
        return out

    # -- persistence (repro.durability) --------------------------------------
    def snapshot(self) -> object:
        """Ring image: both phase bits, both pointers, the CQE bytes."""
        state: Dict[str, object] = {
            "head": self.head,
            "phase": self.phase,
            "device_tail": self.device_tail,
            "device_phase": self.device_phase,
            "outstanding": self.outstanding,
            "ring": self.memory.read(self.base_addr,
                                     self.depth * CQE_SIZE),
        }
        return state

    def restore(self, state: object) -> None:
        assert isinstance(state, dict)
        self.head = int(state["head"])  # type: ignore[arg-type]
        self.phase = int(state["phase"])  # type: ignore[arg-type]
        self.device_tail = int(state["device_tail"])  # type: ignore[arg-type]
        self.device_phase = int(state["device_phase"])  # type: ignore[arg-type]
        self.outstanding = int(state["outstanding"])  # type: ignore[arg-type]
        ring = state["ring"]
        assert isinstance(ring, bytes)
        self.memory.write(self.base_addr, ring)

    def scrub(self) -> None:
        """Power-loss wipe in place: reset phase protocol, zero slots."""
        self.head = 0
        self.phase = 1
        self.device_tail = 0
        self.device_phase = 1
        self.outstanding = 0
        self.memory.write(self.base_addr, bytes(self.depth * CQE_SIZE))
