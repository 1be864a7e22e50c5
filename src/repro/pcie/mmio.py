"""Device BAR space: register file, doorbells, and an MMIO byte window.

Functionally models the PCIe Base Address Register region that the NVMe
driver maps: controller registers, per-queue doorbells (NVMe 4-byte stride-8
layout), and — for the 2B-SSD/ByteFS comparator — a write-combining *byte
interface* window through which hosts push 64 B cachelines directly into
device memory.

Traffic and timing for stores into this space are accounted by the caller
through :class:`repro.pcie.link.PCIeLink`; this module is the functional
register file only.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

#: Base offset of the NVMe doorbell array within BAR0 (NVMe spec: 0x1000).
DOORBELL_BASE = 0x1000
#: Doorbell stride for CAP.DSTRD = 0 (4 bytes SQ tail + 4 bytes CQ head).
DOORBELL_STRIDE = 8
#: Base offset of the byte-interface window (comparator only).
BYTE_WINDOW_BASE = 0x1_0000
#: Size of the byte-interface window.
BYTE_WINDOW_SIZE = 0x1_0000


def sq_doorbell_offset(qid: int) -> int:
    """BAR offset of submission queue *qid*'s tail doorbell."""
    return DOORBELL_BASE + 2 * qid * (DOORBELL_STRIDE // 2)


def cq_doorbell_offset(qid: int) -> int:
    """BAR offset of completion queue *qid*'s head doorbell."""
    return sq_doorbell_offset(qid) + 4


class BarSpace:
    """The device's BAR0 register file.

    Register writes invoke registered handlers synchronously (the functional
    effect — e.g. the controller noting a new SQ tail); the *timing* of when
    the device acts on a doorbell is modelled by the controller's polling
    loop, matching the OpenSSD firmware the paper modified.
    """

    def __init__(self) -> None:
        self._regs: Dict[int, int] = {}
        self._handlers: Dict[int, Callable[[int], None]] = {}
        self._byte_window = bytearray(BYTE_WINDOW_SIZE)
        self._byte_writes: List[Tuple[int, bytes]] = []

    # -- registers -------------------------------------------------------
    def write32(self, offset: int, value: int) -> None:
        if not 0 <= value < (1 << 32):
            raise ValueError(f"register value out of range: {value:#x}")
        self._regs[offset] = value
        try:
            handler = self._handlers[offset]
        except KeyError:
            return  # a plain register: no firmware hook
        handler(value)

    def read32(self, offset: int) -> int:
        return self._regs.get(offset, 0)

    def on_write(self, offset: int, handler: Callable[[int], None]) -> None:
        """Install a handler invoked on every write to *offset*."""
        self._handlers[offset] = handler

    def clear_write_handler(self, offset: int) -> None:
        """Remove the write handler at *offset* (queue teardown).

        A deleted queue's doorbell register must stop reaching firmware:
        a stale handler would resurrect the old queue's state on the
        next write — or crash — once the qid is reused.  Clearing an
        offset that has no handler is a no-op.
        """
        self._handlers.pop(offset, None)

    def write_handler_offsets(self) -> List[int]:
        """Offsets with live write handlers (leak assertions in tests)."""
        return sorted(self._handlers)

    # -- byte-interface window (MMIO comparator) ---------------------------
    def window_write(self, offset: int, data: bytes) -> None:
        """Store *data* into the byte window (cacheline-sized host stores)."""
        if offset < 0 or offset + len(data) > BYTE_WINDOW_SIZE:
            raise ValueError("byte-window write out of range")
        self._byte_window[offset:offset + len(data)] = data
        self._byte_writes.append((offset, bytes(data)))

    def window_read(self, offset: int, nbytes: int) -> bytes:
        if offset < 0 or offset + nbytes > BYTE_WINDOW_SIZE:
            raise ValueError("byte-window read out of range")
        return bytes(self._byte_window[offset:offset + nbytes])

    def drain_window_writes(self) -> List[Tuple[int, bytes]]:
        """Consume the ordered log of byte-window stores (device side)."""
        writes, self._byte_writes = self._byte_writes, []
        return writes
