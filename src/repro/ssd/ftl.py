"""Page-mapping flash translation layer.

A straightforward page-level FTL over :class:`repro.ssd.nand.NandArray`:
logical page numbers map to physical pages, writes append to per-die active
blocks (striped round-robin across dies for channel/way parallelism),
overwrites invalidate the old copy, and greedy garbage collection reclaims
the block with the fewest valid pages when a die runs low on free blocks.

The KV-SSD and block-write paths both sit on top of this; the paper's
transfer experiments do not stress GC, but a real substrate needs one and
the failure-injection tests exercise it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.ssd.nand import NandArray, PhysicalPage


class FtlError(Exception):
    """Logical-space errors: out-of-space, bad LPN."""


@dataclass
class _DieState:
    """Per-die allocation state."""

    active_block: int = 0
    next_page: int = 0
    free_blocks: List[int] = field(default_factory=list)
    #: block -> set of live page indices.
    valid: Dict[int, Set[int]] = field(default_factory=dict)


class PageMappingFtl:
    """Page-level FTL with greedy GC."""

    #: Trigger GC in a die when its free-block pool drops to this size.
    GC_THRESHOLD = 1

    def __init__(self, nand: NandArray) -> None:
        self.nand = nand
        g = nand.geometry
        self._map: Dict[int, PhysicalPage] = {}
        self._reverse: Dict[Tuple[int, int, int], int] = {}
        self._dies: List[_DieState] = []
        for _ in range(g.dies):
            state = _DieState(free_blocks=list(range(1, g.blocks_per_die)))
            state.valid[0] = set()
            self._dies.append(state)
        self._next_die = 0
        self.gc_runs = 0
        self.gc_migrations = 0
        self.host_writes = 0

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    def _die_coords(self, die: int) -> Tuple[int, int]:
        g = self.nand.geometry
        return die // g.ways, die % g.ways

    @property
    def logical_capacity_pages(self) -> int:
        """Logical pages exposed to the host (7/8 overprovisioning)."""
        return self.nand.geometry.total_pages * 7 // 8

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def _allocate(self, die: int) -> PhysicalPage:
        g = self.nand.geometry
        state = self._dies[die]
        if len(state.free_blocks) <= self.GC_THRESHOLD:
            # GC may migrate live pages into the active block, so the
            # rollover check below must come *after* any collection.
            self._collect(die)
        while state.next_page >= g.pages_per_block:
            if not state.free_blocks:
                self._collect(die)
            if not state.free_blocks:
                raise FtlError(f"die {die}: no free blocks after GC")
            state.active_block = state.free_blocks.pop(0)
            state.next_page = 0
            state.valid.setdefault(state.active_block, set())
        channel, way = self._die_coords(die)
        # The caller claims the page (``next_page += 1``) only once its
        # program succeeds: a failed program leaves the NAND write point
        # where it was, and the die's next write must land there.
        return PhysicalPage(channel, way, state.active_block, state.next_page)

    # ------------------------------------------------------------------
    # host operations
    # ------------------------------------------------------------------
    def write(self, lpn: int, data: bytes, blocking: bool = False) -> PhysicalPage:
        """Write one logical page; returns its new physical location."""
        if lpn < 0 or lpn >= self.logical_capacity_pages:
            raise FtlError(f"LPN {lpn} outside logical capacity")
        die = self._next_die
        self._next_die = (self._next_die + 1) % self.nand.geometry.dies
        ppage = self._allocate(die)
        self.nand.program(ppage, data, blocking=blocking)
        state = self._dies[die]
        state.next_page += 1
        self._invalidate(lpn)
        self._map[lpn] = ppage
        state.valid[ppage.block].add(ppage.page)
        self._reverse[(die, ppage.block, ppage.page)] = lpn
        self.host_writes += 1
        return ppage

    def read(self, lpn: int) -> bytes:
        """Read one logical page: blocking, unless the caller opened a
        :meth:`NandArray.defer_reads` scope (see :mod:`repro.ssd.nand`)."""
        ppage = self._map.get(lpn)
        if ppage is None:
            raise FtlError(f"LPN {lpn} has never been written")
        return self.nand.read(ppage)

    def peek(self, lpn: int) -> bytes:
        """Timing-free read for verification oracles (no NAND charge)."""
        ppage = self._map.get(lpn)
        if ppage is None:
            raise FtlError(f"LPN {lpn} has never been written")
        return self.nand.peek(ppage)

    def trim(self, lpn: int) -> None:
        """Discard a logical page (DSM deallocate)."""
        self._invalidate(lpn)
        self._map.pop(lpn, None)

    def _invalidate(self, lpn: int) -> None:
        old = self._map.get(lpn)
        if old is None:
            return
        die = self.nand.geometry.die_index(old.channel, old.way)
        self._dies[die].valid[old.block].discard(old.page)
        self._reverse.pop((die, old.block, old.page), None)

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def _collect(self, die: int) -> None:
        """Greedy GC: reclaim the non-active block with fewest valid pages.

        Only victims with reclaimable space (at least one invalid page)
        are considered, and only when their live pages fit in the room we
        have to migrate into — otherwise collection is a net loss or a
        deadlock, so it is skipped until overwrites create garbage.
        """
        g = self.nand.geometry
        state = self._dies[die]
        room = (g.pages_per_block - min(state.next_page, g.pages_per_block)
                + g.pages_per_block * len(state.free_blocks))
        candidates = [b for b in state.valid
                      if b != state.active_block
                      and b not in state.free_blocks
                      and len(state.valid[b]) < g.pages_per_block
                      and len(state.valid[b]) < room]
        if not candidates:
            return
        victim = min(candidates, key=lambda b: len(state.valid[b]))
        live = sorted(state.valid[victim])
        channel, way = self._die_coords(die)
        for page_idx in live:
            lpn = self._reverse.get((die, victim, page_idx))
            if lpn is None:  # pragma: no cover - defensive
                continue
            # A blocking read: the migration programs what it returns.
            data = self.nand.read(PhysicalPage(channel, way, victim, page_idx))
            # Migration writes follow the normal allocation path but must
            # not recurse into GC; the active block always has room or is
            # replaced from the free pool first.
            self._migrate(die, lpn, data)
            self.gc_migrations += 1
        state.valid[victim] = set()
        self.nand.erase(die, victim)
        state.free_blocks.append(victim)
        self.gc_runs += 1

    def _migrate(self, die: int, lpn: int, data: bytes) -> None:
        g = self.nand.geometry
        state = self._dies[die]
        if state.next_page >= g.pages_per_block:
            if not state.free_blocks:
                raise FtlError(f"die {die}: GC deadlock, no room to migrate")
            state.active_block = state.free_blocks.pop(0)
            state.next_page = 0
            state.valid.setdefault(state.active_block, set())
        channel, way = self._die_coords(die)
        ppage = PhysicalPage(channel, way, state.active_block, state.next_page)
        self.nand.program(ppage, data)
        state.next_page += 1
        self._invalidate(lpn)
        self._map[lpn] = ppage
        state.valid[ppage.block].add(ppage.page)
        self._reverse[(die, ppage.block, ppage.page)] = lpn

    # ------------------------------------------------------------------
    # persistence (repro.durability)
    # ------------------------------------------------------------------
    # The mapping table lives in controller DRAM: DEVICE_VOLATILE, but
    # *checkpointed* — real firmware journals it to NAND at flush
    # boundaries and re-reads it at boot.  snapshot() is that journal
    # image; scrub() is the power cut; restore() is the boot re-read.

    def snapshot(self) -> object:
        return {
            "map": dict(self._map),
            "reverse": dict(self._reverse),
            "dies": [(s.active_block, s.next_page, list(s.free_blocks),
                      {b: set(v) for b, v in s.valid.items()})
                     for s in self._dies],
            "next_die": self._next_die,
            "counters": (self.gc_runs, self.gc_migrations,
                         self.host_writes),
        }

    def restore(self, state: object) -> None:
        assert isinstance(state, dict)
        self._map = dict(state["map"])
        self._reverse = dict(state["reverse"])
        self._dies = []
        for active_block, next_page, free_blocks, valid in state["dies"]:
            self._dies.append(_DieState(
                active_block=active_block, next_page=next_page,
                free_blocks=list(free_blocks),
                valid={b: set(v) for b, v in valid.items()}))
        self._next_die = state["next_die"]
        self.gc_runs, self.gc_migrations, self.host_writes = (
            state["counters"])

    def scrub(self) -> None:
        """Drop the mapping cache in place (the NAND array is not ours
        to touch — it survives in its own persistence domain)."""
        g = self.nand.geometry
        self._map.clear()
        self._reverse.clear()
        self._dies = []
        for _ in range(g.dies):
            state = _DieState(free_blocks=list(range(1, g.blocks_per_die)))
            state.valid[0] = set()
            self._dies.append(state)
        self._next_die = 0

    def resync_with_nand(self) -> int:
        """Reconcile allocation state with the NAND write points.

        After a crash restores a *stale* mapping checkpoint, the NAND
        array may hold programs the restored die state never allocated;
        handing those pages out again would violate flash program-order
        discipline.  Real firmware scans blocks at boot to find the
        true write points — this is that scan, skipping every die's
        cursor past what NAND actually holds.  The skipped pages carry
        no mapping, so they are plain garbage for GC.  Returns the
        number of pages skipped.
        """
        g = self.nand.geometry
        skipped = 0
        for (die, block), point in self.nand._write_points.items():
            state = self._dies[die]
            if block == state.active_block:
                if point > state.next_page:
                    skipped += point - state.next_page
                    state.next_page = point
            elif block in state.free_blocks and point > 0:
                # A "free" block with programmed pages: pull it out of
                # the pool and park the cursor past its contents.
                state.free_blocks.remove(block)
                state.valid.setdefault(block, set())
                skipped += point
        return skipped

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    @property
    def write_amplification(self) -> float:
        """(host + GC writes) / host writes."""
        if self.host_writes == 0:
            return 0.0
        return (self.host_writes + self.gc_migrations) / self.host_writes
