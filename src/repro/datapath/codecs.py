"""Host-side transfer codecs: how the driver encodes SQE + payload.

Each codec owns one wire encoding — PRP staging, SGL segments, inline
chunk append, tagged chunks, BandSlim fragment commands — and is the
only place that encoding is written.  Every write in the stack (the
driver's generic :meth:`~repro.host.driver.NvmeDriver.submit` and the
async engine, which the synchronous ``passthru`` drives at QD 1) ends in
exactly one :meth:`HostCodec.encode` call.

Codecs hold no state: they operate on the driver instance passed in, so
one codec singleton serves every driver in the process.  The protocol
monitor's instrumentation keeps working unchanged because codecs reach
queue objects and the CID allocator through the same driver attributes
(``driver._alloc_cid``, ``res.sq.push_raw``, ...) it wraps per instance.

BandSlim fragment encoding (inside one 64 B SQE):

=========  ==========================================================
field      use
=========  ==========================================================
opcode     ``VendorOpcode.BANDSLIM_FRAG``
cdw3       the logical command's CDW10 (e.g. the write offset)
cdw10      stream id (one per payload transfer)
cdw11      fragment length (7:0) | last flag (8) | target opcode (23:16)
cdw13      fragment sequence number
cdw14      total payload length (every fragment carries it)
mptr,prp1, 32 bytes of fragment payload
prp2,cdw12,
cdw15
=========  ==========================================================
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.core.chunking import CHUNK_SIZE
from repro.core.inline_command import MAX_INLINE_BYTES, make_inline_command
from repro.core.reassembly import split_tagged, tagged_chunk_count
from repro.datapath import names
from repro.host.errors import DriverError
from repro.nvme.command import NvmeCommand
from repro.nvme.constants import (
    BANDSLIM_FRAGMENT_CAPACITY,
    PAGE_SIZE,
    VendorOpcode,
)
from repro.nvme.prp import build_prps
from repro.nvme.queues import QueueFullError
from repro.nvme.sgl import build_sgl

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.host.driver import NvmeDriver


class HostCodec:
    """One write-path encoding; stateless, shared across drivers."""

    #: Name of the method this codec encodes (diagnostics).
    method: str = ""

    def encode(self, driver: "NvmeDriver", cmd: NvmeCommand, data: bytes,
               qid: int, *, ring: bool = True,
               payload_id: Optional[int] = None) -> int:
        """Stage *data*, fill the SQE's data pointer, insert the SQE (and
        any payload chunks) under the SQ lock, optionally ring, and
        return the allocated CID."""
        raise NotImplementedError


def _stage(driver: "NvmeDriver", data: bytes) -> Tuple[int, List[int]]:
    """Copy *data* into a DMA buffer of its own; returns its address and
    its pages, which the command's CID owns and frees when it retires
    (in-flight writes never share a buffer the device has yet to
    fetch).  A payload larger than the controller's maximum data
    transfer size (Identify MDTS) is refused before anything is
    allocated."""
    if len(data) > driver.identify.max_transfer_bytes:
        raise DriverError(
            f"payload of {len(data)} B exceeds the controller's maximum "
            f"data transfer size ({driver.identify.max_transfer_bytes} B)")
    pages = driver.memory.alloc_pages(
        max(1, (len(data) + PAGE_SIZE - 1) // PAGE_SIZE))
    driver.memory.write(pages[0], data)
    return pages[0], pages


class PrpWriteCodec(HostCodec):
    """Stock write path: stage data, build PRPs, insert SQE, doorbell."""

    method = names.PRP

    def encode(self, driver: "NvmeDriver", cmd: NvmeCommand, data: bytes,
               qid: int, *, ring: bool = True,
               payload_id: Optional[int] = None) -> int:
        if not data:
            raise DriverError("PRP write requires a payload")
        res = driver.queue(qid)
        addr, data_pages = _stage(driver, data)
        mapping = build_prps(driver.memory, addr, len(data))
        cmd.cid = driver._alloc_cid(res)
        res.pending_pages.setdefault(cmd.cid, []).extend(
            list(mapping.list_pages) + data_pages)
        cmd.prp1 = mapping.prp1
        cmd.prp2 = mapping.prp2
        cmd.cdw12 = len(data)
        driver._push_sqe(res, cmd, ring)
        return cmd.cid


class SglWriteCodec(HostCodec):
    """SGL write path (§5 comparison): byte-granular data pointer."""

    method = names.SGL

    def encode(self, driver: "NvmeDriver", cmd: NvmeCommand, data: bytes,
               qid: int, *, ring: bool = True,
               payload_id: Optional[int] = None) -> int:
        if not data:
            raise DriverError("SGL write requires a payload")
        res = driver.queue(qid)
        addr, data_pages = _stage(driver, data)
        mapping = build_sgl(driver.memory, [(addr, len(data))])
        cmd.cid = driver._alloc_cid(res)
        res.pending_pages.setdefault(cmd.cid, []).extend(
            list(mapping.segment_pages) + data_pages)
        cmd.use_sgl()
        desc = mapping.inline.pack()
        cmd.prp1 = int.from_bytes(desc[:8], "little")
        cmd.prp2 = int.from_bytes(desc[8:], "little")
        cmd.cdw12 = len(data)
        driver._push_sqe(res, cmd, ring)
        return cmd.cid


def _require_byteexpress(driver: "NvmeDriver") -> None:
    """Feature detection: on stock firmware the chunks would be misparsed
    as commands, so an inline submission needs the Identify bit."""
    if not driver.identify.byteexpress:
        raise DriverError(
            "controller firmware does not support ByteExpress "
            "(Identify vendor capability byte is clear)")


class InlineWriteCodec(HostCodec):
    """ByteExpress path: command + payload chunks under one SQ lock.

    This is the paper's <30-line ``nvme_queue_rq`` patch: while holding
    the SQ lock, write the command with the payload length re-encoded
    into a reserved field, append the payload as 64-byte chunks into the
    following SQ entries, and ring the doorbell once.  Space for the
    command and every chunk is checked up front — a torn sequence would
    violate the protocol, so a full queue raises :class:`QueueFullError`
    without inserting anything.  Refused when the controller's Identify
    page does not advertise ByteExpress support.
    """

    method = names.BYTEEXPRESS

    def encode(self, driver: "NvmeDriver", cmd: NvmeCommand, data: bytes,
               qid: int, *, ring: bool = True,
               payload_id: Optional[int] = None) -> int:
        if not driver.identify.byteexpress:
            _require_byteexpress(driver)  # raises
        n = len(data)
        if not n:
            raise DriverError("inline submission requires a payload")
        res = driver.queue(qid)
        sq = res.sq
        needed = 1 + (n + CHUNK_SIZE - 1) // CHUNK_SIZE
        if (sq.head - sq.tail - 1) % sq.depth < needed:
            raise QueueFullError(
                f"SQ{sq.qid}: need {needed} slots for inline "
                f"submit, have {sq.space()}")
        # ``make_inline_command`` inlined: it is called only to raise
        # its error when one of its checks fails.
        if n > MAX_INLINE_BYTES or cmd.cdw2:
            make_inline_command(cmd, n)
        # Every check has passed: a refused submit holds no CID.
        cmd.cid = driver._alloc_cid(res)
        cmd.cdw12 = n
        clock = driver.clock
        timing = driver.timing
        with sq.lock:
            _start = clock.now
            try:
                cmd.cdw2 = n
                push = sq.push_raw
                push(cmd.pack())
                clock.advance(timing.sqe_submit_ns)
                # One slot per chunk (the monitor's ``push_raw`` sees
                # each), the last zero-padded; one repeated advance
                # charges them, bit-identical to one per insert.
                for off in range(0, n - CHUNK_SIZE, CHUNK_SIZE):
                    push(data[off:off + CHUNK_SIZE])
                push(data[(needed - 2) * CHUNK_SIZE:]
                     + b"\x00" * ((needed - 1) * CHUNK_SIZE - n))
                clock.advance_repeat(timing.chunk_submit_ns, needed - 1)
            finally:
                clock.span_end("drv.sq_submit", _start)
            if ring:
                driver._ring_sq_doorbell(res)
        return cmd.cid


class TaggedInlineWriteCodec(HostCodec):
    """ByteExpress tagged mode (§3.3.2 future work): self-describing
    chunks that the controller may fetch interleaved across queues.

    The chunks carry *payload_id*; ``None`` takes a fresh id from the
    driver, bound to the command's CID until it retires.  Refused unless
    the controller runs in tagged mode: a queue-local controller would
    store each chunk's tag header as payload bytes and still complete
    the write with SUCCESS.
    """

    method = names.BYTEEXPRESS_TAGGED

    def encode(self, driver: "NvmeDriver", cmd: NvmeCommand, data: bytes,
               qid: int, *, ring: bool = True,
               payload_id: Optional[int] = None) -> int:
        from repro.ssd.context import MODE_TAGGED

        if not data:
            raise DriverError("inline submission requires a payload")
        if driver.ssd.controller.mode != MODE_TAGGED:
            raise DriverError(
                "tagged inline write needs a controller in tagged mode "
                f"(this one runs {driver.ssd.controller.mode!r})")
        _require_byteexpress(driver)
        res = driver.queue(qid)
        make_inline_command(cmd, len(data))
        needed = 1 + tagged_chunk_count(len(data))
        if res.sq.space() < needed:
            raise QueueFullError(
                f"SQ{qid}: need {needed} slots for tagged inline "
                f"submit, have {res.sq.space()}")
        cmd.cid = driver._alloc_cid(res)
        cmd.cdw12 = len(data)
        cmd.cdw3 = driver._bind_payload_id(res, cmd.cid, payload_id)
        chunks = split_tagged(data, cmd.cdw3)
        with res.sq.lock:
            with driver.clock.span("drv.sq_submit"):
                res.sq.push_raw(cmd.pack())
                driver.clock.advance(driver.timing.sqe_submit_ns)
                for chunk in chunks:
                    res.sq.push_raw(chunk)
                    driver.clock.advance(driver.timing.chunk_submit_ns)
            if ring:
                driver._ring_sq_doorbell(res)
        return cmd.cid


# ----------------------------------------------------------------------
# BandSlim: the payload split across a sequence of vendor commands
# ----------------------------------------------------------------------
_LAST_FLAG = 1 << 8


def fragment_count(payload_len: int) -> int:
    """Fragment commands one BandSlim payload of *payload_len* needs."""
    cap = BANDSLIM_FRAGMENT_CAPACITY
    return max(1, (payload_len + cap - 1) // cap)


def pack_fragment(stream: int, seq: int, total_len: int, frag: bytes,
                  last: bool, target_opcode: int,
                  target_cdw10: int = 0) -> NvmeCommand:
    """Encode one payload fragment into a vendor command.

    *target_cdw10* carries the logical command's CDW10 (e.g. the write
    offset) in the fragment's CDW3 — CDW2 must stay zero so the fragment
    is never mistaken for a ByteExpress command.
    """
    if not 0 < len(frag) <= BANDSLIM_FRAGMENT_CAPACITY:
        raise ValueError(
            f"fragment must be 1..{BANDSLIM_FRAGMENT_CAPACITY} bytes")
    padded = frag + b"\x00" * (BANDSLIM_FRAGMENT_CAPACITY - len(frag))
    mptr, prp1, prp2 = struct.unpack("<QQQ", padded[:24])
    cdw12, cdw15 = struct.unpack("<II", padded[24:32])
    cdw11 = len(frag) | (_LAST_FLAG if last else 0) | ((target_opcode & 0xFF) << 16)
    return NvmeCommand(opcode=VendorOpcode.BANDSLIM_FRAG,
                       cdw3=target_cdw10,
                       cdw10=stream, cdw11=cdw11, cdw13=seq, cdw14=total_len,
                       mptr=mptr, prp1=prp1, prp2=prp2,
                       cdw12=cdw12, cdw15=cdw15)


@dataclass(frozen=True)
class FragmentView:
    stream: int
    seq: int
    total_len: int
    data: bytes
    last: bool
    target_opcode: int
    target_cdw10: int = 0


def unpack_fragment(cmd: NvmeCommand) -> FragmentView:
    """Decode a vendor fragment command (device side)."""
    if cmd.opcode != VendorOpcode.BANDSLIM_FRAG:
        raise ValueError(f"not a BandSlim fragment: opcode {cmd.opcode:#x}")
    frag_len = cmd.cdw11 & 0xFF
    if not 0 < frag_len <= BANDSLIM_FRAGMENT_CAPACITY:
        raise ValueError(f"bad fragment length {frag_len}")
    raw = (struct.pack("<QQQ", cmd.mptr, cmd.prp1, cmd.prp2)
           + struct.pack("<II", cmd.cdw12, cmd.cdw15))
    return FragmentView(stream=cmd.cdw10, seq=cmd.cdw13, total_len=cmd.cdw14,
                        data=raw[:frag_len], last=bool(cmd.cdw11 & _LAST_FLAG),
                        target_opcode=(cmd.cdw11 >> 16) & 0xFF,
                        target_cdw10=cmd.cdw3)


class FragmentWriteCodec(HostCodec):
    """BandSlim (§3.2, Figure 3(c)): the payload rides the fields of a
    sequence of vendor fragment commands.

    Every fragment is a full command with its own SQE; only the final
    fragment produces a CQE (intermediates are acknowledged through it),
    so only its CID is tracked as live and returned.  The stream id is
    *payload_id*, or a fresh driver id bound to that CID.  A stream
    larger than the SQ's free space raises :class:`QueueFullError`
    before anything is inserted — a torn stream would wedge the
    device-side reassembly.  The command's opcode and CDW10 become the
    fragments' target opcode and target CDW10.
    """

    method = names.BANDSLIM

    def encode(self, driver: "NvmeDriver", cmd: NvmeCommand, data: bytes,
               qid: int, *, ring: bool = True,
               payload_id: Optional[int] = None) -> int:
        if not data:
            raise DriverError("BandSlim write requires a payload")
        res = driver.queue(qid)
        total = len(data)
        count = fragment_count(total)
        if count > res.sq.space():
            raise QueueFullError(
                f"payload needs {count} fragment commands but SQ{qid} has "
                f"{res.sq.space()} free slots")
        clock = driver.clock
        timing = driver.timing
        # The fragment-management software layer (per payload).
        clock.advance(timing.bandslim_task_host_ns)
        last = count - 1
        cids = [driver._alloc_cid(res, track=seq == last)
                for seq in range(count)]
        cmd.cid = cids[last]
        stream = driver._bind_payload_id(res, cmd.cid, payload_id)
        cap = BANDSLIM_FRAGMENT_CAPACITY
        for seq, cid in enumerate(cids):
            frag = pack_fragment(stream, seq, total,
                                 data[seq * cap:(seq + 1) * cap],
                                 last=seq == last, target_opcode=cmd.opcode,
                                 target_cdw10=cmd.cdw10)
            frag.cid = cid
            clock.advance(timing.bandslim_frag_host_ns)
            driver._push_sqe(res, frag, ring and seq == last)
        return cmd.cid


#: Shared codec singletons (codecs are stateless).
PRP_WRITE_CODEC = PrpWriteCodec()
SGL_WRITE_CODEC = SglWriteCodec()
INLINE_WRITE_CODEC = InlineWriteCodec()
TAGGED_INLINE_WRITE_CODEC = TaggedInlineWriteCodec()
FRAGMENT_WRITE_CODEC = FragmentWriteCodec()
