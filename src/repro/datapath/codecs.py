"""Host-side transfer codecs: how the driver encodes SQE + payload.

Each codec owns one wire encoding — PRP staging, SGL segments, inline
chunk append, tagged chunks — lifted verbatim out of the old
``NvmeDriver.submit_write_*`` monolith.  The driver's generic
:meth:`~repro.host.driver.NvmeDriver.submit` looks the codec up through
the registry and delegates; the legacy ``submit_write_*`` names survive
as thin wrappers.

Codecs hold no state: they operate on the driver instance passed in, so
one codec singleton serves every driver in the process.  The protocol
monitor's instrumentation keeps working unchanged because codecs reach
queue objects and the CID allocator through the same driver attributes
(``driver._alloc_cid``, ``res.sq.push_raw``, ...) it wraps per instance.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.core.chunking import CHUNK_SIZE, chunk_count, split_payload
from repro.core.driver_ext import submit_plain
from repro.core.inline_command import make_inline_command
from repro.datapath import names
from repro.nvme.command import NvmeCommand
from repro.nvme.constants import PAGE_SIZE
from repro.nvme.prp import build_prps
from repro.nvme.queues import QueueFullError
from repro.nvme.sgl import build_sgl

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.host.driver import NvmeDriver


def _driver_error(message: str) -> Exception:
    """The driver's own exception type (imported late: the driver module
    imports the registry, and eager cross-imports here would make the
    package order-sensitive)."""
    from repro.host.driver import DriverError

    return DriverError(message)


class HostCodec:
    """One write-path encoding; stateless, shared across drivers."""

    #: Registry name of the method this codec encodes (diagnostics).
    method: str = ""

    def encode(self, driver: "NvmeDriver", cmd: NvmeCommand, data: bytes,
               qid: int, *, ring: bool = True, private_buffer: bool = False,
               payload_id: Optional[int] = None) -> int:
        """Stage *data*, fill the SQE's data pointer, insert the SQE (and
        any payload chunks) under the SQ lock, optionally ring, and
        return the allocated CID."""
        raise NotImplementedError


class PrpWriteCodec(HostCodec):
    """Stock write path: stage data, build PRPs, insert SQE, doorbell.

    *private_buffer* allocates a dedicated DMA buffer for this command
    instead of reusing the queue's scratch area.  Mandatory at QD>1:
    concurrent in-flight writes staged into the shared scratch would
    overwrite each other before the device fetches them.  The buffer
    is freed automatically when the command's CID retires.
    """

    method = names.PRP

    def encode(self, driver: "NvmeDriver", cmd: NvmeCommand, data: bytes,
               qid: int, *, ring: bool = True, private_buffer: bool = False,
               payload_id: Optional[int] = None) -> int:
        if not data:
            raise _driver_error("PRP write requires a payload")
        res = driver.queue(qid)
        data_pages: List[int] = []
        if private_buffer:
            data_pages = driver.memory.alloc_pages(
                max(1, (len(data) + PAGE_SIZE - 1) // PAGE_SIZE))
            addr = data_pages[0]
            driver.memory.write(addr, data)
        else:
            addr = driver._stage_data(res, data)
        mapping = build_prps(driver.memory, addr, len(data))
        cmd.cid = driver._alloc_cid(res)
        res.pending_pages.setdefault(cmd.cid, []).extend(
            list(mapping.list_pages) + data_pages)
        cmd.prp1 = mapping.prp1
        cmd.prp2 = mapping.prp2
        cmd.cdw12 = len(data)
        with res.sq.lock:
            with driver.clock.span("drv.sq_submit"):
                submit_plain(res.sq, cmd, driver.clock, driver.timing)
            if ring:
                driver._ring_sq_doorbell(res)
        return cmd.cid


class SglWriteCodec(HostCodec):
    """SGL write path (§5 comparison): byte-granular data pointer."""

    method = names.SGL

    def encode(self, driver: "NvmeDriver", cmd: NvmeCommand, data: bytes,
               qid: int, *, ring: bool = True, private_buffer: bool = False,
               payload_id: Optional[int] = None) -> int:
        if not data:
            raise _driver_error("SGL write requires a payload")
        res = driver.queue(qid)
        addr = driver._stage_data(res, data)
        mapping = build_sgl(driver.memory, [(addr, len(data))])
        cmd.cid = driver._alloc_cid(res)
        res.pending_pages.setdefault(cmd.cid, []).extend(mapping.segment_pages)
        cmd.use_sgl()
        desc = mapping.inline.pack()
        cmd.prp1 = int.from_bytes(desc[:8], "little")
        cmd.prp2 = int.from_bytes(desc[8:], "little")
        cmd.cdw12 = len(data)
        with res.sq.lock:
            with driver.clock.span("drv.sq_submit"):
                submit_plain(res.sq, cmd, driver.clock, driver.timing)
            if ring:
                driver._ring_sq_doorbell(res)
        return cmd.cid


class InlineWriteCodec(HostCodec):
    """ByteExpress path: command + payload chunks under one SQ lock.

    Refused when the controller's Identify page does not advertise
    ByteExpress support — on stock firmware the chunks would be
    misparsed as commands, so feature detection is mandatory.
    """

    method = names.BYTEEXPRESS

    def encode(self, driver: "NvmeDriver", cmd: NvmeCommand, data: bytes,
               qid: int, *, ring: bool = True, private_buffer: bool = False,
               payload_id: Optional[int] = None) -> int:
        if not driver.identify.byteexpress:
            raise _driver_error(
                "controller firmware does not support ByteExpress "
                "(Identify vendor capability byte is clear)")
        res = driver.queue(qid)
        cmd.cid = driver._alloc_cid(res)
        cmd.cdw12 = len(data)
        clock = driver.clock
        timing = driver.timing
        sq = res.sq
        with sq.lock:
            _start = clock.now
            try:
                # Inlined body of driver_ext.submit_with_inline_payload
                # (the reference implementation, still exercised by its
                # own tests): the engine path discards the SubmitRecord,
                # so the per-op slot list and record allocation are
                # skipped here.  Semantics and clock arithmetic are
                # identical — same checks, same push/advance order.
                n = len(data)
                if not n:
                    raise ValueError(
                        "inline submission requires a non-empty payload")
                if n <= CHUNK_SIZE:
                    # Dominant case: one command + one chunk.
                    if (sq.head - sq.tail - 1) % sq.depth < 2:
                        raise QueueFullError(
                            f"SQ{sq.qid}: need 2 slots for inline "
                            f"submit, have {sq.space()}")
                    make_inline_command(cmd, n)
                    sq.push_raw(cmd.pack())
                    clock.advance(timing.sqe_submit_ns)
                    sq.push_raw(data if n == CHUNK_SIZE
                                else data + b"\x00" * (CHUNK_SIZE - n))
                    clock.advance(timing.chunk_submit_ns)
                else:
                    needed = 1 + chunk_count(n)
                    if (sq.head - sq.tail - 1) % sq.depth < needed:
                        raise QueueFullError(
                            f"SQ{sq.qid}: need {needed} slots for inline "
                            f"submit, have {sq.space()}")
                    make_inline_command(cmd, n)
                    sq.push_raw(cmd.pack())
                    clock.advance(timing.sqe_submit_ns)
                    chunks = split_payload(data)
                    push = sq.push_raw
                    for chunk in chunks:
                        push(chunk)
                    clock.advance_repeat(timing.chunk_submit_ns,
                                         len(chunks))
            finally:
                clock.span_end("drv.sq_submit", _start)
            if ring:
                driver._ring_sq_doorbell(res)
        return cmd.cid


class TaggedInlineWriteCodec(HostCodec):
    """ByteExpress tagged mode (§3.3.2 future work): self-describing
    chunks that the controller may fetch interleaved across queues."""

    method = names.BYTEEXPRESS_TAGGED

    def encode(self, driver: "NvmeDriver", cmd: NvmeCommand, data: bytes,
               qid: int, *, ring: bool = True, private_buffer: bool = False,
               payload_id: Optional[int] = None) -> int:
        from repro.core.inline_command import make_inline_command
        from repro.core.reassembly import split_tagged

        if payload_id is None:
            raise _driver_error("tagged inline submission needs a payload_id")
        if not data:
            raise _driver_error("inline submission requires a payload")
        if not driver.identify.byteexpress:
            raise _driver_error(
                "controller firmware does not support ByteExpress")
        res = driver.queue(qid)
        cmd.cid = driver._alloc_cid(res)
        cmd.cdw12 = len(data)
        cmd.cdw3 = payload_id
        make_inline_command(cmd, len(data))
        chunks = split_tagged(data, payload_id)
        with res.sq.lock:
            with driver.clock.span("drv.sq_submit"):
                needed = 1 + len(chunks)
                if res.sq.space() < needed:
                    raise QueueFullError(
                        f"SQ{qid}: need {needed} slots for tagged inline "
                        f"submit, have {res.sq.space()}")
                res.sq.push_raw(cmd.pack())
                driver.clock.advance(driver.timing.sqe_submit_ns)
                for chunk in chunks:
                    res.sq.push_raw(chunk)
                    driver.clock.advance(driver.timing.chunk_submit_ns)
            if ring:
                driver._ring_sq_doorbell(res)
        return cmd.cid


#: Shared codec singletons (codecs are stateless).
PRP_WRITE_CODEC = PrpWriteCodec()
SGL_WRITE_CODEC = SglWriteCodec()
INLINE_WRITE_CODEC = InlineWriteCodec()
TAGGED_INLINE_WRITE_CODEC = TaggedInlineWriteCodec()
