"""PCM-style PCIe traffic counters.

Mirrors what Intel Performance Counter Monitor reports in the paper's
experiments: bytes on the link per direction, broken down by the protocol
action that generated them.  Categories let benchmarks show *where* PRP's
4 KB amplification comes from versus ByteExpress's inline fetches.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict

from repro.pcie.tlp import TlpBatch


#: Well-known traffic categories (free-form strings are also accepted).
CAT_DOORBELL = "doorbell"
CAT_CMD_FETCH = "cmd_fetch"
CAT_DATA = "data"
CAT_INLINE_CHUNK = "inline_chunk"
CAT_CQE = "cqe"
CAT_MSIX = "msix"
CAT_MMIO_DATA = "mmio_data"
#: Coherent-link PIO payload stores/polls (the pio_coherent datapath).
CAT_PIO_DATA = "pio_data"
CAT_PRP_LIST = "prp_list"
#: Shadow-doorbell maintenance: the controller's DMA reads of the
#: host-memory tail/head page and its eventidx/park-record writes.
CAT_SHADOW_SYNC = "shadow_sync"

#: Well-known protocol events (counted, byteless).
EVT_RETRY = "retry"
EVT_TIMEOUT = "timeout"
EVT_INLINE_FALLBACK = "inline_fallback"
EVT_BREAKER_TRIP = "breaker_trip"
EVT_TLP_REPLAY = "tlp_replay"


@dataclass
class DirectionTotals:
    downstream_bytes: int = 0
    upstream_bytes: int = 0
    tlp_count: int = 0

    @property
    def total_bytes(self) -> int:
        return self.downstream_bytes + self.upstream_bytes


class TrafficCounter:
    """Accumulates TLP batches by category.

    ``total_bytes`` is a running integer: every path that adds bytes to a
    category (:meth:`record`, :meth:`record_batch`, and the inlined
    copies in ``PCIeLink.record_only``/``record_pair`` and the doorbell
    branch of ``PCIeLink.host_mmio_write``) adds the same
    bytes to it, and :meth:`reset` zeroes it.  Byte counts are integers,
    so it always equals the sum over categories exactly, and reading it
    around every synchronous command costs one attribute load.

    >>> from repro.sim.config import LinkConfig
    >>> from repro.pcie.tlp import host_mmio_write
    >>> tc = TrafficCounter()
    >>> tc.record(CAT_DOORBELL, host_mmio_write(4, LinkConfig()))
    >>> tc.total_bytes > 0
    True
    """

    def __init__(self) -> None:
        self._by_cat: Dict[str, DirectionTotals] = defaultdict(DirectionTotals)
        self._events: Dict[str, int] = defaultdict(int)
        #: Bytes over every category, kept as a running total.
        self.total_bytes = 0

    def record(self, category: str, batch: TlpBatch) -> None:
        tot = self._by_cat[category]
        tot.downstream_bytes += batch.downstream_bytes
        tot.upstream_bytes += batch.upstream_bytes
        tot.tlp_count += batch.tlp_count
        self.total_bytes += batch.total_bytes

    def record_batch(self, category: str, batch: TlpBatch,
                     count: int = 1) -> None:
        """Account *count* identical batches with one totals update.

        Byte counts are integers, so multiplying is exactly equivalent to
        *count* scalar :meth:`record` calls — the batched hot loop uses
        this to collapse per-chunk/per-CQE accounting into one update.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return
        tot = self._by_cat[category]
        tot.downstream_bytes += batch.downstream_bytes * count
        tot.upstream_bytes += batch.upstream_bytes * count
        tot.tlp_count += batch.tlp_count * count
        self.total_bytes += batch.total_bytes * count

    # -- protocol events (retries, fallbacks, fault injections) -------------
    def record_event(self, name: str, count: int = 1) -> None:
        """Count a byteless protocol event (retry, fallback, fault).

        A zero *count* is a no-op that does not materialise the event
        key — bulk accounting of an empty batch must leave the same
        telemetry as zero scalar calls.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count:
            self._events[name] += count

    def event_count(self, name: str) -> int:
        return self._events.get(name, 0)

    def events(self) -> Dict[str, int]:
        """All event counts (stable ordering by name)."""
        return {k: self._events[k] for k in sorted(self._events)}

    @property
    def downstream_bytes(self) -> int:
        return sum(t.downstream_bytes for t in self._by_cat.values())

    @property
    def upstream_bytes(self) -> int:
        return sum(t.upstream_bytes for t in self._by_cat.values())

    @property
    def tlp_count(self) -> int:
        return sum(t.tlp_count for t in self._by_cat.values())

    def category(self, category: str) -> DirectionTotals:
        return self._by_cat[category]

    def breakdown(self) -> Dict[str, int]:
        """Total bytes per category (stable ordering by name)."""
        return {k: self._by_cat[k].total_bytes for k in sorted(self._by_cat)}

    def tlp_breakdown(self) -> Dict[str, int]:
        """TLP count per category (stable ordering by name).

        Counts, not bytes, are what the burst-path optimisations move:
        shadow doorbells remove `doorbell` MMIO writes and burst fetch
        collapses N `cmd_fetch` MRd/CplD pairs into one.
        """
        return {k: self._by_cat[k].tlp_count for k in sorted(self._by_cat)}

    def reset(self) -> None:
        self._by_cat.clear()
        self._events.clear()
        self.total_bytes = 0
