"""NAND flash array model.

Models the Cosmos+ OpenSSD back-end: a grid of dies (channels × ways), each
executing page program / page read / block erase operations with realistic
latencies.  Dies operate independently: the array tracks per-die busy-until
times against the shared simulated clock, and an operation starts once its
die is idle.

* Programs are pipelined: the die stays busy and the clock moves on, so a
  stream of programs issued to different dies overlaps.
* Reads block by default: the clock advances to the die's finish.  That
  is what firmware-internal reads need, which use the data before they can
  go on (boot replay, value-log GC's segment parse, FTL GC migration,
  sub-page read-modify-write).
* Host reads are issued inside a :meth:`NandArray.defer_reads` scope by
  the command handler.  They mark the die busy and capture the page at
  issue, but do not move the clock; the controller parks the command until
  :meth:`NandArray.end_deferred`'s ready time and posts it in the first
  drive that finds the clock past it, while the host keeps submitting
  and reaping.  Host reads on different dies therefore overlap, and
  reads on one die still queue (Cosmos+ firmware queues flash requests
  per way without stalling its command loop).  How long they queue is
  counted by cause: ``read_wait_program_ns`` behind a program or erase,
  ``read_wait_read_ns`` behind other reads.

The Figure 1(b)/5 experiments disable NAND entirely — the paper measures
pure transfer latency — while Figure 6 (KV-SSD) runs with NAND on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sim.clock import SimClock
from repro.sim.config import TimingModel

#: Block erase time (MLC flash, nanoseconds).
ERASE_NS = 3_000_000.0


@dataclass(frozen=True)
class PhysicalPage:
    """Physical page coordinates."""

    channel: int
    way: int
    block: int
    page: int


@dataclass
class NandGeometry:
    channels: int = 8
    ways: int = 8
    blocks_per_die: int = 64
    pages_per_block: int = 64
    page_bytes: int = 16384

    @property
    def dies(self) -> int:
        return self.channels * self.ways

    @property
    def pages_per_die(self) -> int:
        return self.blocks_per_die * self.pages_per_block

    @property
    def total_pages(self) -> int:
        return self.dies * self.pages_per_die

    def die_index(self, channel: int, way: int) -> int:
        if not (0 <= channel < self.channels and 0 <= way < self.ways):
            raise ValueError(f"die ({channel},{way}) out of range")
        return channel * self.ways + way


class NandError(Exception):
    """Media-level failure (program fault, read of erased page, ...)."""


class NandArray:
    """Functional + timed NAND array.

    Data is stored per physical page so reads return exactly what was
    programmed; the model enforces flash discipline (no overwrite without
    erase, in-order page programming within a block).
    """

    def __init__(self, clock: SimClock, timing: TimingModel,
                 geometry: Optional[NandGeometry] = None) -> None:
        self.clock = clock
        self.timing = timing
        self.geometry = geometry or NandGeometry(
            channels=timing.nand_channels, ways=timing.nand_ways,
            page_bytes=timing.nand_page_bytes)
        #: die index -> time the die becomes idle.
        self._busy_until: List[float] = [0.0] * self.geometry.dies
        #: (die, block) -> next programmable page index.
        self._write_points: Dict[Tuple[int, int], int] = {}
        #: (die, block, page) -> data.
        self._pages: Dict[Tuple[int, int, int], bytes] = {}
        #: Dies that fail their next program (failure injection).
        self._inject_fail: Dict[int, int] = {}
        #: Latest finish of the reads issued in the open
        #: :meth:`defer_reads` scope; None while reads block.
        self._deferred_until: Optional[float] = None
        #: die index -> (start, end) of its programs and erases that had
        #: not finished when last looked at, in start order.
        self._slow_ops: List[List[Tuple[float, float]]] = [
            [] for _ in range(self.geometry.dies)]
        self.programs = 0
        self.reads = 0
        self.erases = 0
        #: How long host reads (those in a :meth:`defer_reads` scope)
        #: queued on their die before starting: behind a program or
        #: erase, and behind other reads.
        self.read_wait_program_ns = 0.0
        self.read_wait_read_ns = 0.0

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------
    def inject_program_failures(self, die: int, count: int = 1) -> None:
        """Make the next *count* programs on *die* fail."""
        self._inject_fail[die] = self._inject_fail.get(die, 0) + count

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def _die(self, page: PhysicalPage) -> int:
        return self.geometry.die_index(page.channel, page.way)

    def _check_page(self, page: PhysicalPage) -> None:
        g = self.geometry
        if not (0 <= page.block < g.blocks_per_die
                and 0 <= page.page < g.pages_per_block):
            raise ValueError(f"page {page} out of range")

    def program(self, page: PhysicalPage, data: bytes,
                blocking: bool = False) -> float:
        """Program one page; returns the operation's completion time.

        In pipelined mode (default) the clock does not wait for the die;
        the die is simply busy until the completion time, which is how the
        value-log flusher overlaps NAND with transfers.  With
        ``blocking=True`` the clock advances to completion (synchronous
        flush paths).
        """
        self._check_page(page)
        if len(data) > self.geometry.page_bytes:
            raise NandError(
                f"data ({len(data)} B) exceeds page size "
                f"({self.geometry.page_bytes} B)")
        die = self._die(page)
        key = (die, page.block)
        expected = self._write_points.get(key, 0)
        if page.page != expected:
            raise NandError(
                f"out-of-order program: die {die} block {page.block} "
                f"expects page {expected}, got {page.page}")
        if self._inject_fail.get(die, 0) > 0:
            self._inject_fail[die] -= 1
            raise NandError(f"program failure injected on die {die}")

        start = max(self.clock.now, self._busy_until[die])
        end = start + self.timing.nand_page_program_ns
        self._busy_until[die] = end
        self._slow_ops_ahead(die).append((start, end))
        self._write_points[key] = expected + 1
        self._pages[(die, page.block, page.page)] = bytes(data)
        self.programs += 1
        if blocking:
            self.clock.advance_to(end)
        return end

    def read(self, page: PhysicalPage) -> bytes:
        """Read one programmed page.

        The read starts once its die is idle and keeps the die busy for
        ``nand_page_read_ns``.  Outside a :meth:`defer_reads` scope it
        blocks: the clock advances to the finish, as every
        firmware-internal read needs (boot replay, value-log GC's
        ``parse_segment``, FTL GC migration, sub-page read-modify-write).
        Inside the scope (a host read in its command handler) the clock
        stays put and the scope records the finish instead; the time
        the read queues before it starts is added to
        ``read_wait_program_ns`` and ``read_wait_read_ns`` by what the
        die is busy with until then.  The
        page is captured at issue either way, so a later trim, erase or
        reprogram cannot change what the read returns.
        """
        # ``_check_page`` and ``_die`` inlined: every host GET that
        # misses DRAM reads one page here.
        g = self.geometry
        channel = page.channel
        way = page.way
        block = page.block
        index = page.page
        if not (0 <= block < g.blocks_per_die
                and 0 <= index < g.pages_per_block):
            raise ValueError(f"page {page} out of range")
        if not (0 <= channel < g.channels and 0 <= way < g.ways):
            raise ValueError(f"die ({channel},{way}) out of range")
        die = channel * g.ways + way
        data = self._pages.get((die, block, index))
        if data is None:
            raise NandError(f"read of unwritten page {page}")
        now = self.clock.now
        busy = self._busy_until[die]
        start = busy if busy > now else now
        end = start + self.timing.nand_page_read_ns
        self._busy_until[die] = end
        self.reads += 1
        deferred = self._deferred_until
        if deferred is None:
            self.clock.advance_to(end)
            return data
        if end > deferred:
            self._deferred_until = end
        if start > now:
            # The die's work from now on is back to back up to
            # ``start``; what of it is not a program or erase is reads.
            behind = 0.0
            for op_start, op_end in self._slow_ops_ahead(die):
                behind += op_end - (op_start if op_start > now else now)
            self.read_wait_program_ns += behind
            self.read_wait_read_ns += start - now - behind
        return data

    def _slow_ops_ahead(self, die: int) -> List[Tuple[float, float]]:
        """*die*'s programs and erases not finished yet, in start order
        (drops the finished ones)."""
        slow = self._slow_ops[die]
        now = self.clock.now
        while slow and slow[0][1] <= now:
            del slow[0]
        return slow

    def defer_reads(self) -> None:
        """Open a host-read scope: reads until :meth:`end_deferred` mark
        their dies busy but do not advance the clock."""
        self._deferred_until = 0.0

    def end_deferred(self) -> float:
        """Close the :meth:`defer_reads` scope.  Returns when the last
        read issued in it finishes (0.0 when none reached NAND)."""
        ready = self._deferred_until
        self._deferred_until = None
        return ready or 0.0

    def peek(self, page: PhysicalPage) -> bytes:
        """Timing-free read for verification oracles.

        Returns the programmed data without advancing the clock, marking
        the die busy, or counting a read — the protocol monitor's shadow
        reads must be invisible to the simulation they check.
        """
        self._check_page(page)
        die = self._die(page)
        data = self._pages.get((die, page.block, page.page))
        if data is None:
            raise NandError(f"peek of unwritten page {page}")
        return data

    def erase(self, die: int, block: int) -> float:
        """Erase a block, resetting its write point."""
        if not 0 <= die < self.geometry.dies:
            raise ValueError(f"die {die} out of range")
        start = max(self.clock.now, self._busy_until[die])
        end = start + ERASE_NS
        self._busy_until[die] = end
        self._slow_ops_ahead(die).append((start, end))
        self._write_points[(die, block)] = 0
        for page in range(self.geometry.pages_per_block):
            self._pages.pop((die, block, page), None)
        self.erases += 1
        return end

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def busy_until(self, die: int) -> float:
        return self._busy_until[die]

    @property
    def max_busy_until(self) -> float:
        return max(self._busy_until)

    def drain(self) -> None:
        """Advance the clock until every die is idle."""
        self.clock.advance_to(self.max_busy_until)

    # ------------------------------------------------------------------
    # persistence (repro.durability) — the array is PERSISTENT: a crash
    # never scrubs it.  scrub() models an explicit sanitize/erase-all,
    # wiping contents *in place* so geometry and identity survive.
    # ------------------------------------------------------------------
    def scrub(self) -> None:
        """Erase-all in place: data and write points gone, dies idle.

        Deliberately does NOT re-allocate the array — the device keeps
        its geometry (and whatever identity the personality hung off
        it) across a simulated controller reset.
        """
        self._pages.clear()
        self._write_points.clear()
        for die in range(len(self._busy_until)):
            self._busy_until[die] = 0.0
            self._slow_ops[die].clear()
        self._inject_fail.clear()
