"""Shadow doorbells: host-memory tail/head publication (NVMe DBBUF).

Stock NVMe publishes every SQ tail and CQ head with a posted 4-byte MMIO
write — uncached, serialising, and one TLP on the wire per update.  The
Doorbell Buffer Config mechanism (NVMe 1.3, admin opcode 0x7C; the
virtualised-controller trick studied by Chen et al., arXiv:2304.05148)
replaces that with two shared pages in host memory:

* the **shadow page**, host-written: one slot per queue pair holding the
  current SQ tail and CQ head.  Publishing a doorbell becomes a plain
  cacheable store; the controller reads the whole array with a single
  small DMA read whenever it next looks for work.
* the **eventidx page**, device-written: per-queue eventidx values (the
  last tail the controller consumed) plus a *park record* — the
  simulated-time instant until which the controller promises to keep
  polling the shadow page after going idle.

The host falls back to a real BAR doorbell only when the park record
says the device stopped polling *and* the classic eventidx crossing test
says the device has not yet seen the new tail.  Under sustained QD>1
load the device never parks between rounds, so almost all
``CAT_DOORBELL`` MMIO traffic disappears; an idle rig still wakes the
device correctly through the BAR write.

Layout (both pages are one 4 KiB host page):

======================  =================================================
shadow page             ``qid*8``: SQ tail (u32) · ``qid*8+4``: CQ head (u32)
eventidx page           ``qid*8``: SQ eventidx (u32) · ``qid*8+4``: reserved
eventidx page @ 0xF80   park record: poll-until timestamp (f64, ns)
======================  =================================================
"""

from __future__ import annotations

import struct

from repro.host.memory import HostMemory

#: Bytes per queue slot in either page.
SLOT_SIZE = 8
#: Offset of the park record (poll-until timestamp) in the eventidx page.
PARK_RECORD_OFFSET = 0xF80
#: Highest queue id either page can hold a slot for.
MAX_QID = PARK_RECORD_OFFSET // SLOT_SIZE - 1


class ShadowDoorbells:
    """One host/device view over the shadow + eventidx page pair.

    The driver constructs it (allocating both pages) and registers the
    addresses with the controller via a Doorbell Buffer Config admin
    command; the controller attaches its own view to the same addresses.
    Host-side accesses are plain memory; the *controller* charges PCIe
    traffic for its DMA reads/writes of these pages (``CAT_SHADOW_SYNC``).
    """

    def __init__(self, memory: HostMemory, shadow_addr: int | None = None,
                 eventidx_addr: int | None = None) -> None:
        self.memory = memory
        self.shadow_addr = (memory.alloc_page() if shadow_addr is None
                            else shadow_addr)
        self.eventidx_addr = (memory.alloc_page() if eventidx_addr is None
                              else eventidx_addr)

    @classmethod
    def attach(cls, memory: HostMemory, shadow_addr: int,
               eventidx_addr: int) -> "ShadowDoorbells":
        """The controller's view over pages the host already allocated."""
        return cls(memory, shadow_addr, eventidx_addr)

    # ------------------------------------------------------------------
    # shadow page (host-written, device-read)
    # ------------------------------------------------------------------
    def _check_qid(self, qid: int) -> None:
        if not 0 <= qid <= MAX_QID:
            raise ValueError(f"qid {qid} exceeds shadow page capacity")

    def write_sq_tail(self, qid: int, tail: int) -> None:
        self._check_qid(qid)
        self.memory.write(self.shadow_addr + qid * SLOT_SIZE,
                          struct.pack("<I", tail & 0xFFFFFFFF))

    def read_sq_tail(self, qid: int) -> int:
        self._check_qid(qid)
        return struct.unpack(
            "<I", self.memory.read(self.shadow_addr + qid * SLOT_SIZE, 4))[0]

    def write_cq_head(self, qid: int, head: int) -> None:
        self._check_qid(qid)
        self.memory.write(self.shadow_addr + qid * SLOT_SIZE + 4,
                          struct.pack("<I", head & 0xFFFFFFFF))

    def read_cq_head(self, qid: int) -> int:
        self._check_qid(qid)
        return struct.unpack(
            "<I",
            self.memory.read(self.shadow_addr + qid * SLOT_SIZE + 4, 4))[0]

    # ------------------------------------------------------------------
    # eventidx page (device-written, host-read)
    # ------------------------------------------------------------------
    def write_sq_eventidx(self, qid: int, value: int) -> None:
        self._check_qid(qid)
        self.memory.write(self.eventidx_addr + qid * SLOT_SIZE,
                          struct.pack("<I", value & 0xFFFFFFFF))

    def read_sq_eventidx(self, qid: int) -> int:
        self._check_qid(qid)
        return struct.unpack(
            "<I",
            self.memory.read(self.eventidx_addr + qid * SLOT_SIZE, 4))[0]

    def write_poll_until(self, deadline_ns: float) -> None:
        self.memory.write(self.eventidx_addr + PARK_RECORD_OFFSET,
                          struct.pack("<d", deadline_ns))

    def read_poll_until(self) -> float:
        return struct.unpack(
            "<d",
            self.memory.read(self.eventidx_addr + PARK_RECORD_OFFSET, 8))[0]

    # ------------------------------------------------------------------
    # persistence (repro.durability) — the pages are plain host DRAM,
    # gone at a power cut like any other host-volatile state.
    # ------------------------------------------------------------------
    _PAGE_BYTES = 4096

    def scrub(self) -> None:
        """Zero both pages in place (slots, eventidx, park record)."""
        zeros = bytes(self._PAGE_BYTES)
        self.memory.write(self.shadow_addr, zeros)
        self.memory.write(self.eventidx_addr, zeros)

    # ------------------------------------------------------------------
    # the host's wake decision
    # ------------------------------------------------------------------
    def needs_mmio_wake(self, qid: int, old_tail: int, new_tail: int,
                        depth: int, now_ns: float) -> bool:
        """Must this tail update be backed by a real BAR doorbell?

        No while the park record says the device is still polling the
        shadow page.  Once parked, the standard eventidx crossing test
        applies: wake iff the update moves the tail past the last value
        the device acknowledged.  A re-ring of an unchanged tail (the
        timeout-recovery path) always wakes a parked device — the host
        is explicitly trying to get its attention.
        """
        if now_ns <= self.read_poll_until():
            return False
        if old_tail == new_tail:
            return True
        eventidx = self.read_sq_eventidx(qid)
        return ((new_tail - eventidx - 1) % depth
                < (new_tail - old_tail) % depth)
