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
the traffic figures are both reproduced from one code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.chunking import CHUNK_SIZE, join_chunks
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
    per-SQE round trips.  The window hands entries back one at a time,
    but only while they still line up with the queue's device head —
    after a resync (head jump) the remaining prefetched entries are
    stale and the window refuses to serve them.
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
) -> bytes:
    """Fetch ``info.chunks`` payload entries following the command.

    ``state.head`` must already point past the command's slot.  The
    doorbell guarantees the chunks are visible: the driver rings it only
    after inserting the full sequence, so a chunk count reaching beyond
    ``shadow_tail`` indicates a malformed (or hostile) command and fails
    the command rather than stalling the queue.

    *injector* (a :class:`~repro.faults.FaultInjector`) may fail any
    chunk's DMA with a detected ``corrupt_chunk`` fault; the fetch is
    abandoned with :class:`ChunkCorruptionError` after paying for the
    entries up to and including the corrupt one.

    *window* (a :class:`SqeWindow`) supplies chunks the controller
    already burst-prefetched: those cost no new TLPs and only the cheap
    on-die decode time; chunks past the window's end fall back to the
    per-entry DMA path.
    """

    available = (shadow_tail - state.head) % state.depth
    if info.chunks > available:
        raise InlineFetchError(
            f"SQ{state.qid}: command advertises {info.chunks} inline chunks "
            f"but only {available} entries are visible past the doorbell")

    chunk_left = injector.left if injector is not None else None
    if info.chunks == 1:
        # Dominant small-payload case (<= 64 B): one chunk, no run
        # bookkeeping needed.
        raw = window.take(state.head) if window is not None else None
        if raw is not None:
            state.advance()
            clock.advance(timing.burst_sqe_logic_ns)
        else:
            raw = host_memory.read(state.slot_addr(state.head), CHUNK_SIZE)
            state.advance()
            link.record_only(
                CAT_INLINE_CHUNK,
                tlpmod.device_dma_read(CHUNK_SIZE, link.config))
            clock.advance(timing.chunk_fetch_ns)
        if chunk_left is not None:
            if chunk_left[CORRUPT_CHUNK]:
                chunk_left[CORRUPT_CHUNK] -= 1
            elif injector.fire(CORRUPT_CHUNK):
                raise _corrupt(state, 1, 1)
        # join_chunks((raw,), n) reduces to a truncating slice here.
        pl = info.payload_len
        return raw if pl == CHUNK_SIZE else raw[:pl]

    # Runs of same-kind chunks (burst-prefetched vs DMA-fetched) are
    # accounted in bulk — one traffic record, one repeated clock advance
    # (bit-identical to the per-chunk arithmetic), one countdown
    # subtraction — while the functional reads and head advances still
    # happen per chunk.  A chunk at which a fault stream has an event
    # (a ``corrupt_chunk`` or ``corrupt_tlp`` decision, or a crash cut)
    # ends the run and is charged on its own, in per-chunk order: its
    # TLP, its fetch time, then its ``corrupt_chunk`` decision.
    tlp_left = link.faults.left
    chunk_gap = (chunk_left[CORRUPT_CHUNK] if chunk_left is not None
                 else info.chunks)
    tlp_gap = tlp_left[CORRUPT_TLP]
    chunks: List[bytes] = []
    dma_batch = tlpmod.device_dma_read(CHUNK_SIZE, link.config)
    run_is_burst = False
    run_len = 0
    for i in range(info.chunks):
        raw = window.take(state.head) if window is not None else None
        is_burst = raw is not None
        if chunk_gap and (is_burst or tlp_gap):
            if raw is None:
                raw = host_memory.read(state.slot_addr(state.head),
                                       CHUNK_SIZE)
                tlp_gap -= 1
            state.advance()
            chunk_gap -= 1
            if run_len and is_burst != run_is_burst:
                _flush_chunk_run(link, clock, timing, dma_batch,
                                 run_is_burst, run_len, chunk_left)
                run_len = 0
            run_is_burst = is_burst
            run_len += 1
            chunks.append(raw)
            continue
        if run_len:
            _flush_chunk_run(link, clock, timing, dma_batch,
                             run_is_burst, run_len, chunk_left)
            run_len = 0
        if is_burst:
            state.advance()
            clock.advance(timing.burst_sqe_logic_ns)
        else:
            raw = host_memory.read(state.slot_addr(state.head), CHUNK_SIZE)
            state.advance()
            link.record_only(CAT_INLINE_CHUNK, dma_batch)
            clock.advance(timing.chunk_fetch_ns)
        if chunk_left is not None and injector.fire(CORRUPT_CHUNK):
            raise _corrupt(state, i + 1, info.chunks)
        chunks.append(raw)
        chunk_gap = (chunk_left[CORRUPT_CHUNK] if chunk_left is not None
                     else info.chunks)
        tlp_gap = tlp_left[CORRUPT_TLP]
    if run_len:
        _flush_chunk_run(link, clock, timing, dma_batch,
                         run_is_burst, run_len, chunk_left)
    return join_chunks(chunks, info.payload_len)


def _corrupt(state: DeviceSqState, number: int,
             total: int) -> ChunkCorruptionError:
    return ChunkCorruptionError(
        f"SQ{state.qid}: inline chunk {number}/{total} "
        f"failed its integrity check")


def _flush_chunk_run(link: PCIeLink, clock: SimClock, timing: TimingModel,
                     dma_batch, run_is_burst: bool, run_len: int,
                     chunk_left) -> None:
    """Account one run of same-kind inline chunks in bulk."""
    if run_is_burst:
        clock.advance_repeat(timing.burst_sqe_logic_ns, run_len)
    else:
        # Traffic: a real 64 B DMA fetch per chunk; time: the
        # calibrated all-in per-entry cost (wire share included —
        # do not double charge).
        link.record_only(CAT_INLINE_CHUNK, dma_batch, run_len)
        clock.advance_repeat(timing.chunk_fetch_ns, run_len)
    if chunk_left is not None:
        chunk_left[CORRUPT_CHUNK] -= run_len
