"""In-flight command table: futures keyed by (qid, cid).

The table is the engine's source of truth for outstanding work.  Every
asynchronous submission registers an :class:`InFlightCommand` under the
(queue id, command id) pair its CQE will carry; the completion reactor
pops entries as CQEs arrive and resolves their futures — out of order,
exactly as NVMe permits.

Entries also carry everything the recovery paths need to *re-issue* a
command from scratch: the original payload and command words, the
attempt count, the first-submission timestamp, and the absolute
deadline derived from the driver's :class:`~repro.host.driver.RetryPolicy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Deque, Dict, List, Optional,
                    Tuple)

from repro.nvme.completion import NvmeCompletion
from repro.nvme.constants import STATUS_SUCCESS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datapath.spec import DatapathSpec
    from repro.host.memory import HostMemory

#: Future lifecycle states.
PENDING = "pending"
OK = "ok"
FAILED = "failed"
TIMED_OUT = "timed_out"


class FutureError(Exception):
    """Misuse of a command future (double resolve, result before done)."""


class CommandFuture:
    """Single-assignment result slot for one asynchronous command.

    The simulation is single-threaded, so this is a plain state machine
    rather than a synchronised primitive: ``done`` flips exactly once,
    when the reactor resolves or fails the command.

    ``callback`` is the one completion slot: a callable set before the
    engine's next poll gets the resolved future.  ``IoEngine.poll``
    fires the callbacks of the futures a reactor round resolved once
    that round returns, in resolve order, including the rounds
    ``_dispatch`` runs under backpressure; a future left at None costs
    one attribute test.
    """

    __slots__ = ("state", "cqe", "status", "latency_ns", "attempts",
                 "method_used", "stream", "payload_len", "submit_ns",
                 "data", "callback")

    def __init__(self, stream: Optional[int] = None,
                 payload_len: int = 0, submit_ns: float = 0.0) -> None:
        self.state = PENDING
        self.cqe: Optional[NvmeCompletion] = None
        self.status: Optional[int] = None
        self.latency_ns: float = 0.0
        self.attempts: int = 0
        #: Transfer method of the final (resolving) submission — may
        #: differ from the requested one after a breaker fallback, or
        #: name the tagged variant on a tagged controller.
        self.method_used: Optional[str] = None
        self.stream = stream
        self.payload_len = payload_len
        self.submit_ns = submit_ns
        #: Device→host data of a read-style command (``submit_read``),
        #: copied out of the command's private DMA buffer at completion;
        #: None for writes and for reads that returned no data.
        self.data: Optional[bytes] = None
        self.callback: Optional[Callable[["CommandFuture"], None]] = None

    @property
    def done(self) -> bool:
        return self.state != PENDING

    @property
    def ok(self) -> bool:
        return self.state == OK

    def result(self) -> NvmeCompletion:
        """The resolving CQE; raises if the command is still pending or
        produced no completion at all (hard timeout)."""
        if not self.done:
            raise FutureError("command still in flight")
        if self.cqe is None:
            raise FutureError("command timed out without a completion")
        return self.cqe

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"CommandFuture({self.state}, status={self.status}, "
                f"attempts={self.attempts})")


@dataclass(slots=True)
class InFlightCommand:
    """One outstanding command plus everything needed to re-issue it."""

    future: CommandFuture
    #: Requested transfer method (an engine-capable spec).
    spec: "DatapathSpec"
    opcode: int
    payload: bytes
    cdw10: int = 0
    cdw11: int = 0
    nsid: int = 1
    stream: Optional[int] = None
    first_submit_ns: float = 0.0
    deadline_ns: float = float("inf")
    #: Extra command words for keyed/read-style commands (NVMe-KV packs
    #: the key into mptr + CDW10/11 with CDW14 holding the key length,
    #: CDW15 a per-opcode bound such as LIST's max key count).
    mptr: int = 0
    cdw14: int = 0
    cdw15: int = 0
    #: Caller-owned data-pointer words (an admin command's ring base in
    #: PRP1, DBBUF_CONFIG's pages in PRP1/PRP2); a read's private
    #: buffer replaces PRP1.
    prp1: int = 0
    prp2: int = 0
    #: Device→host return-buffer size; 0 marks a write (or a keyed
    #: command with no data return at all, e.g. DELETE/EXIST).
    read_len: int = 0
    #: Private contiguous DMA pages backing the read return, allocated
    #: at first submission and reused across retries; freed by the
    #: reactor when the future resolves.
    read_pages: Tuple[int, ...] = ()
    #: Spec the current submission used: breaker fallback may downgrade
    #: a guarded request to PRP per attempt, and a tagged controller
    #: swaps inline writes to the tagged spec.  None until submitted.
    spec_used: Optional["DatapathSpec"] = None
    #: (qid, cid) of the current submission; None while parked for retry.
    key: Optional[Tuple[int, int]] = None
    attempts: int = 0
    #: Absolute simulated time before which a parked entry must not be
    #: resubmitted (exponential backoff).
    retry_at_ns: float = 0.0

    def resolve(self, cqe: Optional[NvmeCompletion], now_ns: float,
                due: Deque[CommandFuture]) -> None:
        """Resolve the future off its CQE (None: timed out) and queue it
        on *due* when it has a callback to fire.  The future's one
        state transition happens here; a second resolve raises
        :class:`FutureError`."""
        future = self.future
        if future.state != PENDING:
            raise FutureError(f"future already resolved ({future.state})")
        future.attempts = self.attempts
        used = self.spec_used
        if used is not None:
            future.method_used = used.name
        if cqe is None:
            future.state = TIMED_OUT
        else:
            status = future.status = cqe.status
            future.state = OK if status == STATUS_SUCCESS else FAILED
        future.cqe = cqe
        future.latency_ns = now_ns - self.first_submit_ns
        if future.callback is not None:
            due.append(future)

    @property
    def is_inline(self) -> bool:
        """Did the *current* submission use a breaker-guarded (inline or
        fragmented) transfer path?"""
        used = self.spec_used
        return used is not None and used.caps.breaker_guarded

    @property
    def is_keyed(self) -> bool:
        """Submitted through ``submit_read`` (no host→device payload)?"""
        return not self.payload

    def finish_read(self, cqe: Optional[NvmeCompletion],
                    memory: "HostMemory") -> None:
        """Terminal handling of a read with a data buffer: on success,
        copy the data return (the length CQE DW0 reports, capped at the
        buffer) into the future; then free the buffer, as
        :meth:`release_read_buffer` does.  Parked retries keep it: the
        resubmission lands its data in the same pages."""
        pages = self.read_pages
        if cqe is not None and cqe.status == STATUS_SUCCESS:
            nbytes = cqe.result
            if nbytes > self.read_len:
                nbytes = self.read_len
            self.future.data = memory.read(pages[0], nbytes)
        for page in pages:
            memory.free_page(page)
        self.read_pages = ()

    def release_read_buffer(self, memory: "HostMemory") -> None:
        """Free the private read-return pages, if any (idempotent)."""
        for page in self.read_pages:
            memory.free_page(page)
        self.read_pages = ()


class InFlightTable:
    """All commands currently owned by the device, keyed by (qid, cid).

    Mirrors the driver's live-CID sets at a higher level: the driver
    tracks which CIDs are unavailable, the table tracks *what the host
    is waiting for* under each of them.  ``high_water`` records the
    deepest the pipeline ever got — the scaling reports surface it to
    show the engine actually sustained QD ≫ 1.
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple[int, int], InFlightCommand] = {}
        self.high_water = 0

    def add(self, entry: InFlightCommand) -> None:
        if entry.key is None:
            raise ValueError("entry has no (qid, cid) key")
        if entry.key in self._entries:
            raise ValueError(f"duplicate in-flight key {entry.key}")
        self._entries[entry.key] = entry
        depth = len(self._entries)
        if depth > self.high_water:
            self.high_water = depth

    def pop(self, key: Tuple[int, int]) -> Optional[InFlightCommand]:
        return self._entries.pop(key, None)

    def get(self, key: Tuple[int, int]) -> Optional[InFlightCommand]:
        return self._entries.get(key)

    def entries(self) -> List[InFlightCommand]:
        """Snapshot of current entries (safe to mutate the table while
        iterating the returned list)."""
        return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)
