"""Load/store comparators: payload bytes through a BAR-mapped window.

Two designs the paper's compatibility argument weighs against bypass
the NVMe command path entirely.  The host stores the payload straight
into a device buffer mapped through a BAR, stores the length to a
commit register, and polls a status register; the device latches the
lines and hands the payload to firmware.

* **MMIO byte interface** (paper §3.1, Figure 3(b); the 2B-SSD / ByteFS
  comparator): 64-byte write-combined cacheline stores, a doorbell-class
  commit write, and an uncached MMIO status read — a full link round
  trip.  It is fast and stays fast beyond 1 KB (the property §4.2
  concedes to MMIO designs), but it needs a new host interface layer
  and device buffer management outside NVMe.
* **Coherent-link PIO** (arXiv 2409.08141): the buffer is mapped
  cacheably over a coherent link (CXL.mem-class).  Stores pipeline
  instead of serialising at the write-combining buffer, the commit word
  is one more store (there is no doorbell), and the coherence protocol
  keeps the status word fresh, so polling it is far cheaper than an
  uncached read.  Every access is charged to ``CAT_PIO_DATA``: the
  method produces zero doorbell, command-fetch and CQE traffic by
  construction, which the crash harness relies on (a ``pio_coherent``
  run only offers TLP cut opportunities).

The two differ only in registers, TLP categories and costs, which a
:class:`BarWindowProfile` names; the device half
(:class:`BarWindowInterface`) and the host half
(:class:`BarWindowTransfer`) are shared.

Status convention: the status register is written once per op and 0
means in progress, so the device publishes ``status + 1`` for every
outcome — a rejected commit length included — and the host subtracts 1
(:func:`decode_status`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.datapath import names as dp_names
from repro.nvme.command import NvmeCommand
from repro.nvme.constants import IoOpcode, StatusCode
from repro.pcie.mmio import BYTE_WINDOW_SIZE
from repro.pcie.traffic import CAT_DOORBELL, CAT_MMIO_DATA, CAT_PIO_DATA
from repro.ssd.controller import CommandContext
from repro.ssd.device import OpenSsd
from repro.transfer.base import TransferMethod, TransferStats

_CACHELINE = 64


@dataclass(frozen=True)
class BarWindowProfile:
    """What tells one BAR-window method from another."""

    #: Transfer-method name (:mod:`repro.datapath.names`).
    name: str
    #: ``CommandContext.transport`` tag the firmware handlers see.
    transport: str
    #: BAR register the host stores the payload length to (commit).
    commit_reg: int
    #: BAR register the host polls for the published status.
    status_reg: int
    #: TLP categories charged for payload stores, the commit store and
    #: the status poll.
    data_category: str
    commit_category: str
    poll_category: str
    #: ``TimingModel`` fields: device latch cost per line, host store
    #: cost per line, commit store cost.
    latch_ns: str
    store_ns: str
    commit_ns: str
    #: ``TimingModel`` field charged for the status poll; ``None``
    #: charges the link's uncached-read round trip instead.
    poll_ns: Optional[str] = None


MMIO_PROFILE = BarWindowProfile(
    name=dp_names.MMIO, transport=dp_names.TRANSPORT_MMIO,
    commit_reg=0x2000, status_reg=0x2004,
    data_category=CAT_MMIO_DATA, commit_category=CAT_DOORBELL,
    poll_category=CAT_DOORBELL,
    latch_ns="mmio_latch_ns", store_ns="mmio_cacheline_ns",
    commit_ns="doorbell_write_ns")

PIO_PROFILE = BarWindowProfile(
    name=dp_names.PIO_COHERENT, transport=dp_names.TRANSPORT_PIO,
    commit_reg=0x3000, status_reg=0x3004,
    data_category=CAT_PIO_DATA, commit_category=CAT_PIO_DATA,
    poll_category=CAT_PIO_DATA,
    latch_ns="pio_latch_ns", store_ns="pio_store_ns",
    commit_ns="pio_store_ns", poll_ns="pio_poll_ns")

#: Profile per method name.
BAR_WINDOW_PROFILES: Dict[str, BarWindowProfile] = {
    p.name: p for p in (MMIO_PROFILE, PIO_PROFILE)}


def decode_status(raw: int) -> int:
    """Host view of a status register: ``raw - 1``, or
    ``INTERNAL_ERROR`` while it still reads 0 (nothing was published)."""
    return (raw - 1) if raw else StatusCode.INTERNAL_ERROR


class BarWindowInterface:
    """Device half: latch window stores, dispatch to firmware handlers."""

    def __init__(self, ssd: OpenSsd, profile: BarWindowProfile,
                 target_opcode: int = IoOpcode.WRITE) -> None:
        self.ssd = ssd
        self.profile = profile
        self.target_opcode = target_opcode
        self.payloads = 0
        ssd.bar.on_write(profile.commit_reg, self._on_commit)

    def _publish(self, status: int) -> None:
        self.ssd.bar.write32(self.profile.status_reg, status + 1)

    def _on_commit(self, length: int) -> None:
        if length == 0 or length > BYTE_WINDOW_SIZE:
            self._publish(StatusCode.INVALID_FIELD)
            return
        profile = self.profile
        lines = (length + _CACHELINE - 1) // _CACHELINE
        self.ssd.clock.advance(
            getattr(self.ssd.config.timing, profile.latch_ns) * lines)
        payload = self.ssd.bar.window_read(0, length)
        ctx = CommandContext(
            cmd=NvmeCommand(opcode=self.target_opcode, cdw12=length),
            qid=0, data=payload, transport=profile.transport)
        result = self.ssd.controller.dispatch_local(ctx)
        self.payloads += 1
        self._publish(result.status)


class BarWindowTransfer(TransferMethod):
    """Host half: cacheline stores + commit store + status poll."""

    def __init__(self, ssd: OpenSsd, profile: BarWindowProfile) -> None:
        self.ssd = ssd
        self.profile = profile
        self.name = profile.name
        self.interface = BarWindowInterface(ssd, profile)

    def write(self, payload: bytes, opcode: int = IoOpcode.WRITE,
              cdw10: int = 0, cdw11: int = 0, nsid: int = 1,
              qid: Optional[int] = None) -> TransferStats:
        if not payload:
            raise ValueError(f"{self.name} transfer requires a payload")
        if len(payload) > BYTE_WINDOW_SIZE:
            raise ValueError(
                f"payload exceeds the {BYTE_WINDOW_SIZE} B byte window")
        profile = self.profile
        bar = self.ssd.bar
        clock = self.ssd.clock
        timing = self.ssd.config.timing
        link = self.ssd.link
        counter = link.counter
        start_ns, start_bytes = clock.now, counter.total_bytes

        self.interface.target_opcode = opcode
        bar.write32(profile.status_reg, 0)
        # Cacheline stores carrying the payload.
        store_ns = getattr(timing, profile.store_ns)
        for off in range(0, len(payload), _CACHELINE):
            line = payload[off:off + _CACHELINE]
            bar.window_write(off, line)
            link.host_mmio_write(len(line), profile.data_category)
            clock.advance(store_ns)
        # The commit store triggers device-side processing.
        bar.write32(profile.commit_reg, len(payload))
        link.host_mmio_write(4, profile.commit_category)
        clock.advance(getattr(timing, profile.commit_ns))
        # One status poll.
        poll_ns = link.host_mmio_read(4, profile.poll_category)
        if profile.poll_ns is not None:
            poll_ns = getattr(timing, profile.poll_ns)
        clock.advance(poll_ns)
        status = decode_status(bar.read32(profile.status_reg))

        return TransferStats(method=self.name, payload_len=len(payload),
                             latency_ns=clock.now - start_ns,
                             pcie_bytes=counter.total_bytes - start_bytes,
                             commands=0, status=status)
