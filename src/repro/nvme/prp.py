"""Physical Region Page (PRP) construction and traversal.

PRP is the mandatory NVMe-over-PCIe data pointer mechanism and the transfer
path the paper optimises against.  The host builds PRP entries describing
page-granular buffers (PRP1, PRP2, and — beyond two pages — PRP lists in
host memory); the controller walks them to program its DMA engine.

The traffic amplification the paper measures (Figure 1(b)/(c)) comes from
the *device* pulling whole 4 KB pages per PRP entry regardless of the actual
payload length, which is how the block path on the OpenSSD (4 KB logical
blocks) behaves.  The walker therefore exposes both the exact byte segments
and the page-rounded fetch sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple

from repro.host.memory import HostMemory
from repro.nvme.constants import PAGE_SIZE, PRP_ENTRY_SIZE

#: PRP-list entries per 4 KB list page (the last one may be a chain pointer).
ENTRIES_PER_LIST_PAGE = PAGE_SIZE // PRP_ENTRY_SIZE


@dataclass(slots=True)
class PrpMapping:
    """Host-side result of PRP construction for one buffer."""

    prp1: int
    prp2: int
    #: Addresses of PRP-list pages allocated in host memory (possibly empty).
    list_pages: List[int] = field(default_factory=list)

    @property
    def uses_list(self) -> bool:
        return bool(self.list_pages)


def page_count(addr: int, nbytes: int) -> int:
    """Number of pages a buffer of *nbytes* at *addr* touches."""
    if nbytes <= 0:
        raise ValueError("PRP transfers require a positive length")
    offset = addr % PAGE_SIZE
    return (offset + nbytes + PAGE_SIZE - 1) // PAGE_SIZE


def build_prps(memory: HostMemory, addr: int, nbytes: int) -> PrpMapping:
    """Construct PRP1/PRP2 (and PRP lists) for the buffer at *addr*.

    Follows the NVMe rules: PRP1 may carry a page offset; every later entry
    must be page-aligned; with more than two pages, PRP2 points at a PRP
    list, chained across list pages when necessary.
    """
    npages = page_count(addr, nbytes)
    first_page = addr - (addr % PAGE_SIZE)

    if npages == 1:
        return PrpMapping(addr, 0)
    if npages == 2:
        return PrpMapping(addr, first_page + PAGE_SIZE)

    remaining = [first_page + PAGE_SIZE * i for i in range(1, npages)]
    list_pages: List[int] = []
    first_list = memory.alloc_page()
    list_pages.append(first_list)
    current = first_list
    index = 0
    for i, entry in enumerate(remaining):
        # If this list page is out of data slots and more entries remain,
        # its final slot becomes a chain pointer to a fresh list page.
        if index == ENTRIES_PER_LIST_PAGE - 1 and i < len(remaining) - 1:
            next_page = memory.alloc_page()
            memory.write(current + index * PRP_ENTRY_SIZE,
                         next_page.to_bytes(8, "little"))
            list_pages.append(next_page)
            current = next_page
            index = 0
        memory.write(current + index * PRP_ENTRY_SIZE,
                     entry.to_bytes(8, "little"))
        index += 1
    return PrpMapping(prp1=addr, prp2=first_list, list_pages=list_pages)


class PrpSegment(NamedTuple):
    """One contiguous host-memory region of a PRP transfer.

    A named tuple: immutable, and built without the per-field
    ``__setattr__`` calls a frozen dataclass pays, since the device
    builds one per page of every PRP data pull.
    """

    addr: int
    nbytes: int          # exact bytes of payload in this page
    fetch_bytes: int     # what a page-granular DMA engine pulls for it


def walk_prps(
    prp1: int,
    prp2: int,
    nbytes: int,
    read_list_page: Callable[[int], bytes],
    fetch_granularity: int = PAGE_SIZE,
) -> List[PrpSegment]:
    """Device-side PRP traversal.

    *read_list_page* is invoked for each PRP-list page the walk needs (the
    controller passes a DMA closure so list fetches are accounted as PCIe
    traffic).  Returns the ordered page segments of the transfer.

    *fetch_granularity* models the device's minimum transfer unit (paper
    §5: most NVMe systems use 4 KB, some support 512 B logical blocks).
    Each segment's ``fetch_bytes`` is the payload rounded up to this unit,
    capped at the page — the source of PRP's traffic amplification.
    """
    if fetch_granularity <= 0 or PAGE_SIZE % fetch_granularity:
        raise ValueError(
            f"fetch granularity {fetch_granularity} must divide {PAGE_SIZE}")
    npages = page_count(prp1, nbytes)
    offset = prp1 % PAGE_SIZE
    entries: List[int] = [prp1]

    if npages == 2:
        if prp2 % PAGE_SIZE:
            raise ValueError("PRP2 entry must be page aligned")
        entries.append(prp2)
    elif npages > 2:
        needed = npages - 1
        current = prp2
        while needed > 0:
            if current % PAGE_SIZE:
                raise ValueError("PRP list pointer must be page aligned")
            raw = read_list_page(current)
            slots = [int.from_bytes(raw[i:i + 8], "little")
                     for i in range(0, PAGE_SIZE, PRP_ENTRY_SIZE)]
            # Last slot chains onward when more entries remain than fit.
            if needed > ENTRIES_PER_LIST_PAGE:
                take = ENTRIES_PER_LIST_PAGE - 1
                entries.extend(slots[:take])
                needed -= take
                current = slots[-1]
            else:
                entries.extend(slots[:needed])
                needed = 0

    segments: List[PrpSegment] = []
    remaining = nbytes
    in_page = PAGE_SIZE - offset  # the first entry may carry an offset
    for addr in entries:
        take = remaining if remaining < in_page else in_page
        fetch = -(-take // fetch_granularity) * fetch_granularity
        segments.append(PrpSegment(
            addr, take, fetch if fetch < PAGE_SIZE else PAGE_SIZE))
        remaining -= take
        in_page = PAGE_SIZE
    if remaining != 0:
        raise ValueError("PRP entries do not cover the transfer length")
    return segments
