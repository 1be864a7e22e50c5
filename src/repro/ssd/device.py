"""OpenSSD device assembly.

Wires the substrates into one simulated SSD: shared clock, PCIe link with
traffic counters, BAR space, device DRAM, NAND array + page-mapping FTL,
and the NVMe controller firmware.  Personalities (block SSD, KV-SSD, CSD)
attach opcode handlers on top — the same physical device model underneath,
exactly like the Cosmos+ firmware variants the paper evaluates.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.durability.domains import (
    DEVICE_VOLATILE,
    HOST_VOLATILE,
    PERSISTENT,
    DurabilityMap,
)
from repro.host.memory import HostMemory
from repro.nvme.constants import IoOpcode, StatusCode
from repro.pcie.link import PCIeLink
from repro.pcie.mmio import BarSpace
from repro.pcie.traffic import TrafficCounter
from repro.sim.clock import SimClock
from repro.sim.config import DEVICE_DRAM_BYTES, PAGE_SIZE, SimConfig
from repro.ssd.controller import (
    MODE_QUEUE_LOCAL,
    CommandContext,
    CommandResult,
    NvmeController,
)
from repro.ssd.dram import DeviceDram
from repro.ssd.ftl import FtlError, PageMappingFtl
from repro.ssd.nand import NandArray, NandError


#: A write's outcome once its data has landed: nothing downstream
#: mutates a result, so every successful write shares this one.
_WRITTEN = CommandResult()


class OpenSsd:
    """The simulated Cosmos+ OpenSSD.

    *fault_plan* (a :class:`repro.faults.FaultPlan`) arms deterministic
    fault injection across the whole rig: one shared
    :class:`~repro.faults.FaultInjector` is consulted by the PCIe link,
    the controller firmware, and the host driver.
    """

    def __init__(self, config: Optional[SimConfig] = None,
                 mode: str = MODE_QUEUE_LOCAL,
                 fault_plan=None) -> None:
        from repro.faults.plan import FaultInjector

        self.config = config or SimConfig()
        self.clock = SimClock(jitter=self.config.timing_jitter,
                              seed=self.config.seed)
        self.traffic = TrafficCounter()
        self.faults = FaultInjector(fault_plan, counter=self.traffic)
        self.host_memory = HostMemory()
        self.link = PCIeLink(self.config.link, self.config.timing,
                             self.traffic, injector=self.faults)
        self.bar = BarSpace()
        self.dram = DeviceDram(DEVICE_DRAM_BYTES)
        self.nand = NandArray(self.clock, self.config.timing)
        self.ftl = PageMappingFtl(self.nand)
        self.controller = NvmeController(self.config, self.clock, self.link,
                                         self.host_memory, bar=self.bar,
                                         mode=mode, injector=self.faults)
        #: Persistence-domain registry (``repro.durability``): every
        #: state-holding component registers under the domain that
        #: decides whether it survives a power cut.  The FTL mapping
        #: cache is *checkpointed* — journaled at flush boundaries and
        #: restored at boot, like real firmware.
        self.durability = DurabilityMap()
        self.durability.register("host.memory", HOST_VOLATILE,
                                 self.host_memory)
        self.durability.register("ssd.dram", DEVICE_VOLATILE, self.dram)
        self.durability.register("ssd.controller", DEVICE_VOLATILE,
                                 self.controller)
        self.durability.register("ssd.ftl", DEVICE_VOLATILE, self.ftl,
                                 checkpointed=True)
        self.durability.register("ssd.nand", PERSISTENT, self.nand)

    @property
    def nand_enabled(self) -> bool:
        return self.config.nand_enabled


class BlockSsdPersonality:
    """Standard block-SSD firmware: NVM read/write over 4 KB logical pages.

    With NAND disabled (the paper's transfer-latency experiments) writes
    land in a DRAM staging buffer and are acknowledged immediately; with
    NAND enabled they do read-modify-write at logical-page granularity
    through the FTL.
    """

    def __init__(self, ssd: OpenSsd) -> None:
        self.ssd = ssd
        #: DRAM staging area for received payloads (the paper's "NAND page
        #: buffer entry of normal block SSDs", §3.3.1).
        self.staging = ssd.dram.carve("block.staging", 4 << 20)
        self._staging_off = 0
        #: NAND-off functional store: logical page -> its extent, the
        #: page's bytes from 0 up to the highest byte ever written.  A
        #: short extent reads as if zero-padded to the full page, so a
        #: 32 B write holds 32 B here, not 4 KiB.
        self._pages: Dict[int, bytearray] = {}
        ssd.controller.register_handler(IoOpcode.WRITE, self._on_write)
        ssd.controller.register_handler(IoOpcode.READ, self._on_read)
        ssd.controller.register_handler(IoOpcode.FLUSH, self._on_flush)
        # The functional store stands in for the NAND medium when NAND is
        # off, so it registers as the device's persistent surface.  With
        # NAND on, writes go through the FTL and the store stays empty.
        ssd.durability.register("block.medium", PERSISTENT, self)

    @property
    def stored_bytes(self) -> int:
        """Bytes the NAND-off functional store holds: the sum of its
        extents (0 with NAND on)."""
        return sum(map(len, self._pages.values()))

    # ------------------------------------------------------------------
    def _on_write(self, ctx: CommandContext) -> CommandResult:
        data = ctx.data
        if data is None:
            return CommandResult(StatusCode.INVALID_FIELD)
        n = len(data)
        # Land the payload in device DRAM staging (wraps when full).
        off = self._staging_off
        if off + n > self.staging.size:
            off = 0
        self.staging.write(off, data)
        self._staging_off = off + n
        cmd = ctx.cmd
        offset = cmd.cdw10 | (cmd.cdw11 << 32)
        if not self.ssd.config.nand_enabled:
            self._write_functional(offset, data, n)
            return _WRITTEN
        try:
            self._write_through_ftl(offset, data)
        except NandError:
            return CommandResult(StatusCode.MEDIA_WRITE_FAULT)
        return _WRITTEN

    def _write_functional(self, offset: int, data: bytes, n: int) -> None:
        """Write *data* (*n* bytes) at byte *offset* of the NAND-off
        functional store, growing each page's extent to cover it."""
        in_page = offset % PAGE_SIZE
        if not (n and in_page + n <= PAGE_SIZE):
            for lpn, start, piece in self._split_pages(offset, data):
                self._write_functional(lpn * PAGE_SIZE + start, piece,
                                       len(piece))
            return
        # The write lands in a single page.
        lpn = offset // PAGE_SIZE
        pages = self._pages
        if lpn not in pages:
            pages[lpn] = bytearray(in_page) + data
            return
        extent = pages[lpn]
        gap = in_page - len(extent)
        if gap > 0:
            # Zero-fill up to the write, as a padded page would read.
            extent += bytes(gap)
        extent[in_page:in_page + n] = data

    def _write_through_ftl(self, offset: int, data: bytes) -> None:
        for lpn, start, piece in self._split_pages(offset, data):
            if start != 0 or len(piece) != PAGE_SIZE:
                # Sub-page write: read-modify-write.  The read blocks:
                # the firmware needs the old page before it can merge.
                current = bytearray(self._gather(lpn * PAGE_SIZE, PAGE_SIZE,
                                                 self.ssd.ftl.read))
                current[start:start + len(piece)] = piece
                self.ssd.ftl.write(lpn, bytes(current))
            else:
                self.ssd.ftl.write(lpn, piece)

    @staticmethod
    def _split_pages(offset: int, data: bytes):
        """Yield (lpn, start-in-page, piece) for a byte-ranged write."""
        pos = 0
        while pos < len(data):
            addr = offset + pos
            lpn = addr // PAGE_SIZE
            in_page = addr % PAGE_SIZE
            take = min(len(data) - pos, PAGE_SIZE - in_page)
            yield lpn, in_page, data[pos:pos + take]
            pos += take

    def _on_read(self, ctx: CommandContext) -> CommandResult:
        offset = ctx.cmd.cdw10 | (ctx.cmd.cdw11 << 32)
        nbytes = ctx.cmd.cdw13
        if nbytes == 0:
            return CommandResult(StatusCode.INVALID_FIELD)
        # Block devices return whole logical blocks: the read-side twin of
        # the write path's traffic amplification (paper §5).  The data is
        # padded up to the LBA boundary; SGL bit buckets can discard it.
        lba = self.ssd.config.lba_bytes
        nbytes = -(-nbytes // lba) * lba
        if not self.ssd.nand_enabled:
            return CommandResult(result=nbytes,
                                 read_data=self._gather(offset, nbytes))
        # A host read: its pages are read on their dies at once, and the
        # controller parks the command until the last one finishes.
        nand = self.ssd.nand
        nand.defer_reads()
        try:
            data = self._gather(offset, nbytes, self.ssd.ftl.read)
        finally:
            ready = nand.end_deferred()
        return CommandResult(result=nbytes, read_data=data, ready_at_ns=ready)

    def _gather(self, offset: int, nbytes: int,
                read_page: Optional[Callable[[int], bytes]] = None) -> bytes:
        """The *nbytes* at byte *offset*: from the NAND-off functional
        store, or with NAND on through *read_page* (an FTL read).  Bytes
        past a page's extent, and a never-written page, read as zeros
        either way."""
        out = bytearray()
        pos = 0
        while pos < nbytes:
            addr = offset + pos
            lpn = addr // PAGE_SIZE
            in_page = addr % PAGE_SIZE
            take = min(nbytes - pos, PAGE_SIZE - in_page)
            if read_page is None:
                page = self._pages.get(lpn, b"")
            else:
                try:
                    page = read_page(lpn)
                except FtlError:
                    page = b""
            piece = page[in_page:in_page + take]
            out += piece
            if len(piece) < take:
                out += bytes(take - len(piece))
            pos += take
        return bytes(out)

    def _on_flush(self, ctx: CommandContext) -> CommandResult:
        if self.ssd.nand_enabled:
            self.ssd.nand.drain()
        return CommandResult()

    # -- persistence (repro.durability) ------------------------------------
    def scrub(self) -> None:
        """Explicit sanitize of the functional medium (never at a crash —
        the medium is PERSISTENT).  Handlers and staging identity stay."""
        self._pages.clear()

    # -- test/inspection hooks ---------------------------------------------
    def read_back(self, offset: int, nbytes: int) -> bytes:
        """Direct functional read for verification in tests.

        Timing-free, like the controller's oracles: with NAND on it
        peeks the FTL, so it moves neither the clock nor the NAND
        counters.  A never-written page reads as zeros, as over READ.
        """
        return self._gather(offset, nbytes,
                            self.ssd.ftl.peek if self.ssd.nand_enabled
                            else None)
