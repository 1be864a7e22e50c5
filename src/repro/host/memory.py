"""Host DRAM model: page allocator plus byte-addressable access.

PRP transfers require page-aligned, page-granular buffers; the queues
themselves (SQ/CQ rings and PRP list pages) also live in host memory and are
read by the device over PCIe.  The model is a sparse map of 4 KB frames.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.sim.config import PAGE_SIZE


class HostMemory:
    """Sparse, page-granular host physical memory."""

    #: Allocation starts above a small reserved region to catch null derefs.
    _ALLOC_BASE = 0x10_0000

    def __init__(self) -> None:
        self._frames: Dict[int, bytearray] = {}
        self._next = self._ALLOC_BASE

    # -- allocation -------------------------------------------------------
    def alloc_page(self) -> int:
        """Allocate one zeroed 4 KB page, returning its physical address."""
        addr = self._next
        self._next += PAGE_SIZE
        self._frames[addr] = bytearray(PAGE_SIZE)
        return addr

    def alloc_pages(self, count: int) -> List[int]:
        """Allocate *count* contiguous pages; returns their addresses."""
        if count == 1:
            # One page (every KV GET's read buffer): no comprehension.
            return [self.alloc_page()]
        if count < 1:
            raise ValueError("must allocate at least one page")
        return [self.alloc_page() for _ in range(count)]

    def alloc_buffer(self, nbytes: int) -> int:
        """Allocate a page-aligned buffer covering *nbytes*; returns base."""
        if nbytes < 0:
            raise ValueError("negative buffer size")
        pages = max(1, (nbytes + PAGE_SIZE - 1) // PAGE_SIZE)
        return self.alloc_pages(pages)[0]

    def free_page(self, addr: int) -> None:
        """Release one previously allocated page (e.g. a PRP list page)."""
        if addr % PAGE_SIZE:
            raise ValueError("free_page requires a page-aligned address")
        if self._frames.pop(addr, None) is None:
            raise MemoryError(f"double free of host page {addr:#x}")

    # -- access -----------------------------------------------------------
    def frame_at(self, addr: int) -> Tuple[bytearray, int]:
        """The 4 KB frame holding *addr* and *addr*'s offset in it, for
        in-place access (the host's CQ poll tests a phase bit there);
        an unmapped address raises :class:`MemoryError`."""
        in_page = addr & (PAGE_SIZE - 1)
        try:
            return self._frames[addr - in_page], in_page
        except KeyError:
            raise MemoryError(
                f"access to unmapped host address {addr:#x}") from None

    def write(self, addr: int, data: bytes) -> None:
        """Write *data* starting at *addr*, possibly spanning pages."""
        in_page = addr & (PAGE_SIZE - 1)
        n = len(data)
        if n and in_page + n <= PAGE_SIZE:
            # Single-frame access: the overwhelmingly common case (SQE
            # slots, CQE slots, inline chunks all fit one page).
            try:
                frame = self._frames[addr - in_page]
            except KeyError:
                raise MemoryError(
                    f"access to unmapped host address {addr:#x}") from None
            frame[in_page:in_page + n] = data
            return
        off = 0
        while off < n:
            frame, in_page = self.frame_at(addr + off)
            take = min(n - off, PAGE_SIZE - in_page)
            frame[in_page:in_page + take] = data[off:off + take]
            off += take

    def read(self, addr: int, nbytes: int) -> bytes:
        """Read *nbytes* starting at *addr*, possibly spanning pages."""
        in_page = addr & (PAGE_SIZE - 1)
        if 0 < nbytes <= PAGE_SIZE - in_page:
            try:
                frame = self._frames[addr - in_page]
            except KeyError:
                raise MemoryError(
                    f"access to unmapped host address {addr:#x}") from None
            return bytes(frame[in_page:in_page + nbytes])
        out = bytearray()
        off = 0
        while off < nbytes:
            frame, in_page = self.frame_at(addr + off)
            take = min(nbytes - off, PAGE_SIZE - in_page)
            out += frame[in_page:in_page + take]
            off += take
        return bytes(out)

    @property
    def mapped_pages(self) -> int:
        return len(self._frames)

    # -- persistence (repro.durability) -----------------------------------
    def scrub(self) -> None:
        """Power-loss wipe: zero every mapped frame *in place*.

        The mapping itself survives (a rebooted host re-zeroes its DRAM;
        the physical frames do not move), so objects holding addresses
        into host memory — queue rings, shadow pages — keep valid
        addresses and can be scrubbed in any order.
        """
        for frame in self._frames.values():
            frame[:] = bytes(PAGE_SIZE)
