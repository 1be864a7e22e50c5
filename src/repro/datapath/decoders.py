"""Device-side data-pointer decoders: how the controller moves data.

Each decoder owns one data-pointer interpretation — PRP walking or SGL
walking — lifted verbatim out of the old ``NvmeController`` monolith's
``_pull_*`` / ``_push_*`` methods.  The controller's dispatch path asks
:func:`decoder_for_psdt` which decoder a command's PSDT field selects
and delegates; the firmware handlers only ever see the resulting
:class:`~repro.ssd.context.CommandContext`.  Inline (ByteExpress)
payloads are not a data pointer: the fetch unit detects the inline
marker during command decode and pulls the chunk run itself
(:func:`repro.core.controller_ext.fetch_inline_payload`).

Decoders hold no state: they operate on the controller instance passed
in (clock, link, host memory, timing), so one decoder singleton serves
every controller in the process.

Timing discipline: ``pull`` opens its own ``ctrl.data_transfer`` clock
span (matching the old monolith exactly); ``push`` does *not* — the
controller's ``_push_read_data`` wrapper owns that span because the old
code opened it before branching on the PSDT.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.datapath import names
from repro.nvme.command import NvmeCommand
from repro.nvme.constants import PAGE_SIZE, Psdt
from repro.nvme.prp import walk_prps
from repro.nvme.sgl import SglDescriptor, SglType, walk_sgl
from repro.pcie import tlp as tlpmod
from repro.pcie.traffic import CAT_DATA, CAT_PRP_LIST

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ssd.controller import NvmeController


class DeviceDecoder:
    """One data-pointer interpretation; stateless, shared across devices."""

    #: Transport tag stamped on ``CommandContext.transport``.
    transport: str = ""

    def pull(self, ctrl: "NvmeController", cmd: NvmeCommand,
             nbytes: int) -> bytes:
        """Host→device payload transfer (write-style commands)."""
        raise NotImplementedError

    def push(self, ctrl: "NvmeController", cmd: NvmeCommand,
             data: bytes) -> None:
        """Device→host data return (read-style commands)."""
        raise NotImplementedError


class PrpDecoder(DeviceDecoder):
    """Stock NVMe data path: PRP entries, LBA-granular on the wire."""

    transport = names.TRANSPORT_PRP

    def _read_list_page(self, ctrl: "NvmeController", addr: int) -> bytes:
        """DMA a PRP-list page, accounted as PRP-list traffic."""
        data = ctrl.host_memory.read(addr, PAGE_SIZE)
        ctrl.link.record_only(
            CAT_PRP_LIST, tlpmod.device_dma_read(PAGE_SIZE, ctrl.link.config))
        ctrl.clock.advance(ctrl.timing.chunk_fetch_ns)
        return data

    def pull(self, ctrl: "NvmeController", cmd: NvmeCommand,
             nbytes: int) -> bytes:
        """Host→device data transfer over PRP (LBA-granular on the wire)."""
        with ctrl.clock.span("ctrl.data_transfer"):
            ctrl.clock.advance(ctrl.timing.prp_dma_setup_ns)
            segments = walk_prps(cmd.prp1, cmd.prp2, nbytes,
                                 lambda addr: self._read_list_page(ctrl, addr),
                                 fetch_granularity=ctrl.config.lba_bytes)
            payload = bytearray()
            wire_bytes = 0
            fetched = 0
            for seg in segments:
                payload += ctrl.host_memory.read(seg.addr, seg.nbytes)
                batch = tlpmod.device_dma_read(seg.fetch_bytes,
                                               ctrl.link.config)
                ctrl.link.record_only(CAT_DATA, batch)
                wire_bytes += batch.total_bytes
                fetched += seg.fetch_bytes
            ctrl.clock.advance(ctrl.link.serialisation_ns(wire_bytes)
                               + ctrl.timing.host_mem_read_ns
                               + ctrl.timing.link_propagation_ns * 2)
            ctrl.clock.advance(ctrl.timing.dram_copy_per_kb_ns
                               * fetched / 1024.0)
        return bytes(payload)

    def push(self, ctrl: "NvmeController", cmd: NvmeCommand,
             data: bytes) -> None:
        """PRP read return: one DMA write to the host buffer."""
        ctrl.host_memory.write(cmd.prp1, data)
        batch = tlpmod.device_dma_write(len(data), ctrl.link.config)
        ctrl.link.record_only(CAT_DATA, batch)
        ctrl.clock.advance(ctrl.timing.prp_dma_setup_ns
                           + ctrl.link.serialisation_ns(batch.total_bytes)
                           + ctrl.timing.link_propagation_ns)


class SglDecoder(DeviceDecoder):
    """SGL data path (§5 comparison): byte-granular descriptors, with
    bit-bucket support on the read-return side."""

    transport = names.TRANSPORT_SGL

    def pull(self, ctrl: "NvmeController", cmd: NvmeCommand,
             nbytes: int) -> bytes:
        """Host→device transfer over SGL (byte-granular on the wire)."""
        with ctrl.clock.span("ctrl.data_transfer"):
            inline = SglDescriptor.unpack(
                cmd.prp1.to_bytes(8, "little") + cmd.prp2.to_bytes(8, "little"))

            def read_segment(addr: int, length: int) -> bytes:
                data = ctrl.host_memory.read(addr, length)
                ctrl.link.record_only(
                    CAT_PRP_LIST,
                    tlpmod.device_dma_read(length, ctrl.link.config))
                ctrl.clock.advance(ctrl.timing.chunk_fetch_ns)
                return data

            blocks = walk_sgl(inline, read_segment)
            ctrl.clock.advance(ctrl.timing.sgl_parse_ns * len(blocks))
            payload = bytearray()
            wire_bytes = 0
            for desc in blocks:
                if desc.sgl_type == SglType.BIT_BUCKET:
                    continue
                payload += ctrl.host_memory.read(desc.addr, desc.length)
                batch = tlpmod.device_dma_read(desc.length, ctrl.link.config)
                ctrl.link.record_only(CAT_DATA, batch)
                wire_bytes += batch.total_bytes
            ctrl.clock.advance(ctrl.link.serialisation_ns(wire_bytes)
                               + ctrl.timing.host_mem_read_ns
                               + ctrl.timing.link_propagation_ns * 2)
            ctrl.clock.advance(ctrl.timing.dram_copy_per_kb_ns
                               * len(payload) / 1024.0)
        if len(payload) != nbytes:
            raise ValueError("SGL descriptors do not cover the transfer")
        return bytes(payload)

    def push(self, ctrl: "NvmeController", cmd: NvmeCommand,
             data: bytes) -> None:
        """SGL read return: deliver into data blocks, discard bit buckets
        (paper §5: "enabling completion of small-data read requests
        without requiring data return")."""
        inline = SglDescriptor.unpack(
            cmd.prp1.to_bytes(8, "little") + cmd.prp2.to_bytes(8, "little"))

        def read_segment(addr: int, length: int) -> bytes:
            raw = ctrl.host_memory.read(addr, length)
            ctrl.link.record_only(
                CAT_PRP_LIST,
                tlpmod.device_dma_read(length, ctrl.link.config))
            ctrl.clock.advance(ctrl.timing.chunk_fetch_ns)
            return raw

        blocks = walk_sgl(inline, read_segment)
        ctrl.clock.advance(ctrl.timing.sgl_parse_ns * len(blocks))
        offset = 0
        delivered_wire = 0
        for desc in blocks:
            if offset >= len(data):
                break
            take = min(desc.length, len(data) - offset)
            if desc.sgl_type == SglType.BIT_BUCKET:
                offset += take  # discarded: no TLPs, no host write
                continue
            ctrl.host_memory.write(desc.addr, data[offset:offset + take])
            batch = tlpmod.device_dma_write(take, ctrl.link.config)
            ctrl.link.record_only(CAT_DATA, batch)
            delivered_wire += batch.total_bytes
            offset += take
        ctrl.clock.advance(ctrl.timing.prp_dma_setup_ns
                           + ctrl.link.serialisation_ns(delivered_wire)
                           + ctrl.timing.link_propagation_ns)


#: Shared decoder singletons (decoders are stateless).
PRP_DECODER = PrpDecoder()
SGL_DECODER = SglDecoder()


def decoder_for_psdt(psdt: int) -> DeviceDecoder:
    """The data-pointer decoder a command's PSDT field selects."""
    return PRP_DECODER if psdt == Psdt.PRP else SGL_DECODER
