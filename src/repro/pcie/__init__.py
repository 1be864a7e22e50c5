"""PCIe substrate: TLP accounting, link timing, BAR space, counters."""

from repro.pcie.link import PCIeLink
from repro.pcie.mmio import (
    BYTE_WINDOW_BASE,
    BYTE_WINDOW_SIZE,
    DOORBELL_BASE,
    BarSpace,
    cq_doorbell_offset,
    sq_doorbell_offset,
)
from repro.pcie.tlp import (
    Tlp,
    TlpBatch,
    device_dma_read,
    device_dma_write,
    host_mmio_write,
    msix_interrupt,
    segment,
)
from repro.pcie.traffic import (
    CAT_CMD_FETCH,
    CAT_CQE,
    CAT_DATA,
    CAT_DOORBELL,
    CAT_INLINE_CHUNK,
    CAT_MMIO_DATA,
    CAT_MSIX,
    CAT_PRP_LIST,
    DirectionTotals,
    TrafficCounter,
)

__all__ = [
    "Tlp",
    "TlpBatch",
    "segment",
    "host_mmio_write",
    "device_dma_read",
    "device_dma_write",
    "msix_interrupt",
    "PCIeLink",
    "BarSpace",
    "DOORBELL_BASE",
    "BYTE_WINDOW_BASE",
    "BYTE_WINDOW_SIZE",
    "sq_doorbell_offset",
    "cq_doorbell_offset",
    "TrafficCounter",
    "DirectionTotals",
    "CAT_DOORBELL",
    "CAT_CMD_FETCH",
    "CAT_DATA",
    "CAT_INLINE_CHUNK",
    "CAT_CQE",
    "CAT_MSIX",
    "CAT_MMIO_DATA",
    "CAT_PRP_LIST",
]
