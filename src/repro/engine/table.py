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
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.nvme.completion import NvmeCompletion
from repro.nvme.constants import StatusCode

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
    """

    __slots__ = ("state", "cqe", "status", "latency_ns", "attempts",
                 "method_used", "stream", "payload_len", "submit_ns",
                 "data")

    def __init__(self, stream: Optional[int] = None,
                 payload_len: int = 0) -> None:
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
        self.submit_ns: float = 0.0
        #: Device→host data of a read-style command (``submit_read``),
        #: copied out of the command's private DMA buffer at completion;
        #: None for writes and for reads that returned no data.
        self.data: Optional[bytes] = None

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

    def _resolve(self, state: str, cqe: Optional[NvmeCompletion],
                 latency_ns: float) -> None:
        if self.state != PENDING:
            raise FutureError(f"future already resolved ({self.state})")
        self.state = state
        self.cqe = cqe
        self.status = cqe.status if cqe is not None else None
        self.latency_ns = latency_ns

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
    #: Extra command words for keyed/read-style commands (NVMe-KV packs
    #: the key into mptr + CDW10/11 with CDW14 holding the key length,
    #: CDW15 a per-opcode bound such as LIST's max key count).
    mptr: int = 0
    cdw14: int = 0
    cdw15: int = 0
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
    first_submit_ns: float = 0.0
    deadline_ns: float = float("inf")
    #: Absolute simulated time before which a parked entry must not be
    #: resubmitted (exponential backoff).
    retry_at_ns: float = 0.0

    @property
    def qid(self) -> Optional[int]:
        return self.key[0] if self.key else None

    def fail(self, cqe: Optional[NvmeCompletion], now_ns: float) -> None:
        state = FAILED if cqe is not None else TIMED_OUT
        self.future.attempts = self.attempts
        if self.spec_used is not None:
            self.future.method_used = self.spec_used.name
        self.future._resolve(state, cqe, now_ns - self.first_submit_ns)

    def resolve(self, cqe: NvmeCompletion, now_ns: float) -> None:
        future = self.future
        future.attempts = self.attempts
        if self.spec_used is not None:
            future.method_used = self.spec_used.name
        state = OK if cqe.status == StatusCode.SUCCESS else FAILED
        future._resolve(state, cqe, now_ns - self.first_submit_ns)

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
        buffer) into the future; then free the buffer.  Parked retries
        keep it: the resubmission lands its data in the same pages."""
        if cqe is not None and cqe.ok:
            self.future.data = memory.read(self.read_pages[0],
                                           min(cqe.result, self.read_len))
        self.release_read_buffer(memory)

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

    def __iter__(self) -> Iterator[InFlightCommand]:
        return iter(list(self._entries.values()))
