"""Device-side ByteExpress fetch (the ``get_nvme_cmd`` patch).

The paper extends the OpenSSD firmware's command-fetch routine by <20
lines: after DMA-fetching a command, the controller checks the reserved
field; a non-zero value means the next N submission-queue entries are
payload chunks, which it fetches *from the same queue* before resuming
round-robin polling (paper §3.3.2, device half — queue-local retrieval
preserves inter-SQ ordering).

Timing: the paper reports ~400 ns per inline SQ-entry fetch, inclusive of
the DMA issue/receive/copy path (§4.2, Table 1).  We charge exactly that
per chunk and account the wire TLPs separately for traffic, so Table 1 and
the traffic figures are both reproduced from one code path.  A payload
with no fault event inside it is charged in bulk (the same totals, bit
for bit); one with an event is charged one chunk at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.chunking import CHUNK_SIZE
from repro.core.inline_command import InlineInfo
from repro.faults.plan import CORRUPT_CHUNK, CORRUPT_TLP
from repro.host.memory import HostMemory
from repro.pcie import tlp as tlpmod
from repro.pcie.link import PCIeLink
from repro.pcie.traffic import CAT_INLINE_CHUNK
from repro.sim.clock import SimClock
from repro.sim.config import TimingModel


@dataclass
class DeviceSqState:
    """The controller's view of one submission queue.

    Populated from the Create-SQ admin command: base address, depth, and
    the controller's private head pointer (how far it has consumed).
    """

    qid: int
    base_addr: int
    depth: int
    head: int = 0

    def slot_addr(self, index: int) -> int:
        return self.base_addr + (index % self.depth) * CHUNK_SIZE

    def advance(self, count: int = 1) -> None:
        self.head = (self.head + count) % self.depth


@dataclass(slots=True)
class SqeWindow:
    """A run of contiguous SQ entries prefetched by one burst DMA read.

    When a doorbell advances the tail by N, the controller may fetch
    min(N, burst_limit) entries with a single large MRd instead of N
    per-SQE round trips.  The window hands entries back (a command via
    :meth:`take`, its inline chunks as a run in
    :func:`fetch_inline_payload`), but only while they still line up
    with the queue's device head — after a resync (head jump) the
    remaining prefetched entries are stale and the window refuses to
    serve them.
    """

    start: int
    depth: int
    entries: List[bytes] = field(default_factory=list)
    consumed: int = 0

    @property
    def next_index(self) -> int:
        """Ring slot of the next unconsumed prefetched entry."""
        return (self.start + self.consumed) % self.depth

    @property
    def remaining(self) -> int:
        return len(self.entries) - self.consumed

    def take(self, head: int) -> Optional[bytes]:
        """The entry at ring slot *head*, or None if the window cannot
        serve it (exhausted, or the head diverged from the prefetch)."""
        if self.remaining <= 0 or self.next_index != head % self.depth:
            return None
        raw = self.entries[self.consumed]
        self.consumed += 1
        return raw


class InlineFetchError(Exception):
    """Raised when the advertised chunk count exceeds the doorbell'd tail."""


class ChunkCorruptionError(InlineFetchError):
    """An inline chunk's fetch TLP failed its end-to-end CRC check.

    Transient link fault, not a host protocol violation: the controller
    completes the command with a retryable transfer-error status and the
    driver resubmits the whole CMD+chunk sequence.
    """


def fetch_inline_payload(
    state: DeviceSqState,
    info: InlineInfo,
    shadow_tail: int,
    host_memory: HostMemory,
    link: PCIeLink,
    clock: SimClock,
    timing: TimingModel,
    injector=None,
    window: Optional[SqeWindow] = None,
    chunk_batch: Optional[tlpmod.TlpBatch] = None,
) -> bytes:
    """Fetch ``info.chunks`` payload entries following the command.

    ``state.head`` must already point past the command's slot.  The
    driver rings the doorbell only after inserting the full sequence, so
    a chunk count reaching beyond ``shadow_tail`` marks a malformed (or
    hostile) command: it fails with :class:`InlineFetchError` rather
    than stalling the queue.

    The chunks are one contiguous run.  *window* serves the ones the
    controller already burst-prefetched, a prefix of the run (a window
    serves only entries that line up with the head): no new TLPs, only
    the on-die decode time.  The rest are DMA-fetched from the ring in
    one read, or two when they wrap the ring end.  *injector* may fail
    any chunk's DMA with a ``corrupt_chunk`` fault: the fetch raises
    :class:`ChunkCorruptionError` after paying for the chunks up to and
    including that one.

    A payload with no fault event inside it (a ``corrupt_chunk``
    decision, a ``corrupt_tlp`` replay or a crash cut) is charged in
    bulk, bit-identical to per-chunk charging; one with an event is
    charged one chunk at a time: its TLP, its fetch time, then its
    ``corrupt_chunk`` decision.  *chunk_batch* is the TLP batch of one
    64 B chunk fetch on *link* (``None`` builds it).
    """
    n = info.chunks
    head = state.head
    depth = state.depth
    available = (shadow_tail - head) % depth
    if n > available:
        raise InlineFetchError(
            f"SQ{state.qid}: command advertises {n} inline chunks "
            f"but only {available} entries are visible past the doorbell")
    if chunk_batch is None:
        chunk_batch = tlpmod.device_dma_read(CHUNK_SIZE, link.config)

    burst = 0
    data = b""
    if window is not None:
        taken = window.consumed
        if (window.start + taken) % window.depth == head:
            burst = len(window.entries) - taken
            if burst > n:
                burst = n
            window.consumed = taken + burst
            data = b"".join(window.entries[taken:taken + burst])
    dma = n - burst
    if dma:
        start = (head + burst) % depth
        addr = state.base_addr + start * CHUNK_SIZE
        # The payload's own bytes only: the last chunk's zero padding
        # crosses the wire (it is charged below) but is never kept.
        want = info.payload_len - burst * CHUNK_SIZE
        room = (depth - start) * CHUNK_SIZE  # up to the ring end
        if want <= room:
            data += host_memory.read(addr, want)
        else:
            data += host_memory.read(addr, room)
            data += host_memory.read(state.base_addr, want - room)

    chunk_left = injector.left if injector is not None else None
    if ((chunk_left is None or chunk_left[CORRUPT_CHUNK] >= n)
            and link.faults.left[CORRUPT_TLP] >= dma):
        state.head = (head + n) % depth
        if burst:
            clock.advance_repeat(timing.burst_sqe_logic_ns, burst)
        if dma:
            # Traffic: a real 64 B DMA fetch per chunk; time: the
            # calibrated all-in per-entry cost (wire share included —
            # do not double charge).
            link.record_only(CAT_INLINE_CHUNK, chunk_batch, dma)
            clock.advance_repeat(timing.chunk_fetch_ns, dma)
        if chunk_left is not None:
            chunk_left[CORRUPT_CHUNK] -= n
    else:
        for i in range(n):
            state.head = (head + i + 1) % depth
            if i < burst:
                clock.advance(timing.burst_sqe_logic_ns)
            else:
                link.record_only(CAT_INLINE_CHUNK, chunk_batch)
                clock.advance(timing.chunk_fetch_ns)
            if chunk_left is not None and injector.fire(CORRUPT_CHUNK):
                raise ChunkCorruptionError(
                    f"SQ{state.qid}: inline chunk {i + 1}/{n} "
                    f"failed its integrity check")
    return data[:info.payload_len]
