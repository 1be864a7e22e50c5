"""OpenSSD device assembly.

Wires the substrates into one simulated SSD: shared clock, PCIe link with
traffic counters, BAR space, device DRAM, NAND array + page-mapping FTL,
and the NVMe controller firmware.  Personalities (block SSD, KV-SSD, CSD)
attach opcode handlers on top — the same physical device model underneath,
exactly like the Cosmos+ firmware variants the paper evaluates.
"""

from __future__ import annotations

from typing import Dict, Optional

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
from repro.sim.config import PAGE_SIZE, SimConfig
from repro.ssd.controller import (
    MODE_QUEUE_LOCAL,
    CommandContext,
    CommandResult,
    NvmeController,
)
from repro.ssd.dram import DeviceDram
from repro.ssd.ftl import PageMappingFtl
from repro.ssd.nand import NandArray, NandError


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
        self.dram = DeviceDram(self.config.device_dram_bytes)
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
        #: NAND-off functional store: logical page -> bytes.
        self._pages: Dict[int, bytearray] = {}
        ssd.controller.register_handler(IoOpcode.WRITE, self._on_write)
        ssd.controller.register_handler(IoOpcode.READ, self._on_read)
        ssd.controller.register_handler(IoOpcode.FLUSH, self._on_flush)
        # The functional store stands in for the NAND medium when NAND is
        # off — it is the device's persistent surface either way (with
        # NAND on it merely mirrors what the FTL path wrote).
        ssd.durability.register("block.medium", PERSISTENT, self)

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
            return CommandResult()
        try:
            self._write_through_ftl(offset, data)
        except NandError:
            return CommandResult(StatusCode.MEDIA_WRITE_FAULT)
        return CommandResult()

    def _write_functional(self, offset: int, data: bytes, n: int) -> None:
        """Write *data* (*n* bytes) at byte *offset* of the NAND-off
        functional store."""
        in_page = offset % PAGE_SIZE
        if n and in_page + n <= PAGE_SIZE:
            # Fast path: the write lands in a single page.
            lpn = offset // PAGE_SIZE
            pages = self._pages
            if lpn in pages:
                page = pages[lpn]
            else:
                page = pages[lpn] = bytearray(PAGE_SIZE)
            page[in_page:in_page + n] = data
            return
        for lpn, start, piece in self._split_pages(offset, data):
            page = self._pages.setdefault(lpn, bytearray(PAGE_SIZE))
            page[start:start + len(piece)] = piece

    def _write_through_ftl(self, offset: int, data: bytes) -> None:
        for lpn, start, piece in self._split_pages(offset, data):
            if start != 0 or len(piece) != PAGE_SIZE:
                # Sub-page write: read-modify-write.
                try:
                    current = bytearray(self.ssd.ftl.read(lpn))
                except Exception:
                    current = bytearray(PAGE_SIZE)
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
        out = bytearray()
        pos = 0
        while pos < nbytes:
            addr = offset + pos
            lpn = addr // PAGE_SIZE
            in_page = addr % PAGE_SIZE
            take = min(nbytes - pos, PAGE_SIZE - in_page)
            if self.ssd.nand_enabled:
                try:
                    page = self.ssd.ftl.read(lpn)
                except Exception:
                    page = b"\x00" * PAGE_SIZE
            else:
                page = bytes(self._pages.get(lpn, b"\x00" * PAGE_SIZE))
            out += page[in_page:in_page + take]
            pos += take
        return CommandResult(read_data=bytes(out))

    def _on_flush(self, ctx: CommandContext) -> CommandResult:
        if self.ssd.nand_enabled:
            self.ssd.nand.drain()
        return CommandResult()

    # -- persistence (repro.durability) ------------------------------------
    def snapshot(self) -> object:
        return {lpn: bytes(page) for lpn, page in self._pages.items()}

    def restore(self, state: object) -> None:
        assert isinstance(state, dict)
        self._pages = {lpn: bytearray(page) for lpn, page in state.items()}

    def scrub(self) -> None:
        """Explicit sanitize of the functional medium (never at a crash —
        the medium is PERSISTENT).  Handlers and staging identity stay."""
        self._pages.clear()

    # -- test/inspection hooks ---------------------------------------------
    def read_back(self, offset: int, nbytes: int) -> bytes:
        """Direct functional read for verification in tests."""
        out = bytearray()
        pos = 0
        while pos < nbytes:
            addr = offset + pos
            lpn = addr // PAGE_SIZE
            in_page = addr % PAGE_SIZE
            take = min(nbytes - pos, PAGE_SIZE - in_page)
            if self.ssd.nand_enabled:
                page = self.ssd.ftl.read(lpn)
            else:
                page = bytes(self._pages.get(lpn, b"\x00" * PAGE_SIZE))
            out += page[in_page:in_page + take]
            pos += take
        return bytes(out)
