"""Shared firmware datatypes: what flows between the controller's units.

Leaf module (no intra-``repro.ssd`` imports) so the decomposed firmware —
:class:`~repro.ssd.fetch.FetchUnit`, :class:`~repro.ssd.admin.AdminEngine`,
:class:`~repro.ssd.completion_unit.CompletionUnit`, the datapath decoders
— and every handler-registering personality layer (block, KV, BandSlim,
MMIO, CSD) can all name these types without importing the controller.
``repro.ssd.controller`` re-exports them, so existing
``from repro.ssd.controller import CommandContext`` imports keep working.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.host.memory import HostMemory
from repro.nvme.command import NvmeCommand
from repro.nvme.completion import NvmeCompletion
from repro.nvme.constants import CQE_SIZE, STATUS_SUCCESS
from repro.nvme.queues import CqOverrunError

#: Fetch-from-SQ modes (paper §3.3.2).
MODE_QUEUE_LOCAL = "queue_local"
MODE_TAGGED = "tagged"

#: Admin queue id.
ADMIN_QID = 0


@dataclass(slots=True)
class CommandContext:
    """Everything an opcode handler sees for one command."""

    cmd: NvmeCommand
    qid: int
    #: Host→device payload, however it was transferred (PRP, SGL, inline).
    data: Optional[bytes] = None
    #: Transport tag from the datapath decoder that moved the payload
    #: (:data:`repro.datapath.names.TRANSPORT_PRP` / ``SGL`` / ``INLINE``
    #: / ...); ``None`` when no data phase ran.
    transport: Optional[str] = None


@dataclass(slots=True)
class CommandResult:
    """Handler outcome."""

    #: A plain int: the completion path compares and packs it per
    #: command.
    status: int = STATUS_SUCCESS
    result: int = 0
    #: Device→host data (for read-style commands); DMA'd before completion.
    read_data: Optional[bytes] = None
    #: Firmware may suppress the CQE (BandSlim intermediate fragments are
    #: acknowledged only through the final fragment's completion).
    suppress_cqe: bool = False
    #: Transient failure: the CQE's DNR bit is left clear so the host's
    #: retry loop may resubmit.  Semantic rejections keep the default
    #: (DNR set) — retrying a malformed command cannot succeed.
    retryable: bool = False
    #: When the command's NAND reads finish (0.0: nothing to wait for).
    #: A later time parks the command on its die: the firmware loop goes
    #: on, and the completion posts in the first drive that finds the
    #: clock past this time (``NvmeController.post_parked``).  Only a
    #: host with nothing else to do waits for it (``wait_for_die``).
    ready_at_ns: float = 0.0


Handler = Callable[[CommandContext], CommandResult]


@dataclass
class DeviceCqState:
    """The controller's private completion-queue producer state."""

    qid: int
    base_addr: int
    depth: int
    tail: int = 0
    phase: int = 1
    #: Host consume pointer, learned from CQ head doorbell writes.
    host_head: int = 0

    def post(self, cqe: NvmeCompletion, memory: HostMemory) -> None:
        """Write *cqe* at the tail with the current phase; the ring's
        one producer.  Full is one less than the size (NVMe): the post
        that would make the tail meet the host head raises
        :class:`CqOverrunError`, so at most ``depth - 1`` CQEs are ever
        unconsumed."""
        tail = self.tail
        depth = self.depth
        if (tail + 1) % depth == self.host_head:
            raise CqOverrunError(f"CQ{self.qid} overrun")
        cqe.phase = self.phase
        # In place: a 16 B slot of a page-aligned ring never straddles
        # a page.
        frame, in_page = memory.frame_at(
            self.base_addr + (tail % depth) * CQE_SIZE)
        cqe.pack_into(frame, in_page)
        self.tail = tail = (tail + 1) % depth
        if tail == 0:
            self.phase ^= 1


@dataclass
class DeferredCommand:
    """Tagged-mode command parked until its payload reassembles."""

    cmd: NvmeCommand
    qid: int
    payload_id: int
