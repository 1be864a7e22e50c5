"""Timed PCIe link model.

Couples TLP accounting (:mod:`repro.pcie.tlp`) with the traffic counter and
a wire-time model.  Every method records the generated TLPs under a traffic
category and returns the *latency contribution* in nanoseconds; the caller
decides whose clock to charge (posted writes, for example, cost the host CPU
almost nothing but delay the device's observation of the data).

Wire-time model: serialisation of the TLP bytes at the link's effective
bandwidth plus one-way propagation per traversal.  Reads are round trips:
request serialisation + propagation + host memory access + completion
serialisation + propagation.
"""

from __future__ import annotations

from repro.faults.plan import CORRUPT_TLP, MMIO_TLP, FaultInjector
from repro.pcie import tlp as tlpmod
from repro.pcie.tlp import TlpBatch
from repro.pcie.traffic import EVT_TLP_REPLAY, TrafficCounter
from repro.sim.config import LinkConfig, TimingModel


class PCIeLink:
    """A point-to-point PCIe link between host root complex and the SSD.

    Every DMA-carrying transaction is a ``corrupt_tlp`` opportunity of
    the attached :class:`~repro.faults.FaultInjector` (the rig's, or a
    private one that never fires): when the fault fires the link layer's
    LCRC detects the mangled TLP, NAKs it, and the sender replays —
    duplicate wire traffic plus a replay latency penalty, with the data
    itself intact (exactly the recovery PCIe guarantees below the
    transaction layer).
    """

    def __init__(self, link: LinkConfig, timing: TimingModel,
                 counter: TrafficCounter = None, injector=None) -> None:
        self.config = link
        self.timing = timing
        self.counter = counter if counter is not None else TrafficCounter()
        self.faults = injector if injector is not None else FaultInjector()

    def _replay_penalty_ns(self, category: str, batch: TlpBatch) -> float:
        """Charge a link-layer replay if a corrupt-TLP fault fires."""
        if not self.faults.fire(CORRUPT_TLP):
            return 0.0
        self.counter.record(category, batch)  # the replayed copy
        self.counter.record_event(EVT_TLP_REPLAY)
        return self.faults.tlp_replay_ns + self.serialisation_ns(
            batch.total_bytes)

    # ------------------------------------------------------------------
    # primitive timings
    # ------------------------------------------------------------------
    def serialisation_ns(self, wire_bytes: int) -> float:
        """Time to clock *wire_bytes* onto the link."""
        return wire_bytes / self.config.bytes_per_ns

    def _one_way(self, wire_bytes: int) -> float:
        return self.serialisation_ns(wire_bytes) + self.timing.link_propagation_ns

    # ------------------------------------------------------------------
    # protocol actions
    # ------------------------------------------------------------------
    def host_mmio_write(self, nbytes: int, category: str) -> float:
        """Host store to BAR space (doorbell, MMIO byte interface).

        Returns the one-way delivery latency.  The host CPU itself only
        pays the store cost from the timing model, not this latency.
        """
        self.faults.fire(MMIO_TLP)  # a crash cut may land here
        batch = tlpmod.host_mmio_write(nbytes, self.config)
        self.counter.record(category, batch)
        return self._one_way(batch.downstream_bytes)

    def host_mmio_read(self, nbytes: int, category: str) -> float:
        """Host load from BAR space; returns the full round-trip latency
        the CPU stalls for (uncached read across the link)."""
        self.faults.fire(MMIO_TLP)
        batch = tlpmod.host_mmio_read(nbytes, self.config)
        self.counter.record(category, batch)
        request_ns = self._one_way(batch.downstream_bytes)
        completion_ns = self._one_way(batch.upstream_bytes)
        return request_ns + completion_ns

    def device_read(self, nbytes: int, category: str) -> float:
        """Device-initiated DMA read of host memory; returns round-trip ns."""
        batch = tlpmod.device_dma_read(nbytes, self.config)
        self.counter.record(category, batch)
        request_ns = self._one_way(batch.upstream_bytes)
        completion_ns = self._one_way(batch.downstream_bytes)
        return (request_ns + self.timing.host_mem_read_ns + completion_ns
                + self._replay_penalty_ns(category, batch))

    def device_write(self, nbytes: int, category: str) -> float:
        """Device-initiated DMA write to host memory (CQE, read data)."""
        batch = tlpmod.device_dma_write(nbytes, self.config)
        self.counter.record(category, batch)
        return (self._one_way(batch.upstream_bytes)
                + self._replay_penalty_ns(category, batch))

    def msix(self, category: str = "msix") -> float:
        """Raise an MSI-X interrupt toward the host."""
        batch = tlpmod.msix_interrupt(self.config)
        self.counter.record(category, batch)
        return self._one_way(batch.upstream_bytes)

    def record_only(self, category: str, batch: TlpBatch,
                    count: int = 1) -> None:
        """Account *count* copies of a pre-built batch without a latency.

        Each copy is a ``corrupt_tlp`` opportunity; a copy that draws the
        fault is replayed, so its duplicate is recorded too (the caller
        owns the clock, so the latency penalty is only charged on the
        timed ``device_read``/``device_write`` paths).  The copies are
        consumed against the injector's countdown: a run with no event in
        it is one totals update.  At an event the copies up to and
        including it are recorded before the opportunity is decided, so a
        crash cut there sees that TLP on the wire.
        """
        left = self.faults.left
        clear = left[CORRUPT_TLP] - count
        if clear < 0:
            self._record_across_events(category, batch, count)
            return
        left[CORRUPT_TLP] = clear
        # Same arithmetic as ``counter.record_batch``, inlined: this
        # sits on every hot-loop TLP record.
        tot = self.counter._by_cat[category]
        tot.downstream_bytes += batch.downstream_bytes * count
        tot.upstream_bytes += batch.upstream_bytes * count
        tot.tlp_count += batch.tlp_count * count

    def record_pair(self, category_a: str, batch_a: TlpBatch,
                    category_b: str, batch_b: TlpBatch) -> None:
        """``record_only(category_a, batch_a)`` then
        ``record_only(category_b, batch_b)``: when neither copy is at a
        ``corrupt_tlp`` event, both take one countdown step of two (a
        completion's CQE write and its MSI-X ride here)."""
        left = self.faults.left
        clear = left[CORRUPT_TLP] - 2
        if clear < 0:
            self.record_only(category_a, batch_a)
            self.record_only(category_b, batch_b)
            return
        left[CORRUPT_TLP] = clear
        by_cat = self.counter._by_cat
        tot = by_cat[category_a]
        tot.downstream_bytes += batch_a.downstream_bytes
        tot.upstream_bytes += batch_a.upstream_bytes
        tot.tlp_count += batch_a.tlp_count
        tot = by_cat[category_b]
        tot.downstream_bytes += batch_b.downstream_bytes
        tot.upstream_bytes += batch_b.upstream_bytes
        tot.tlp_count += batch_b.tlp_count

    def _record_across_events(self, category: str, batch: TlpBatch,
                              count: int) -> None:
        """:meth:`record_only` for a run with an event in it."""
        faults = self.faults
        left = faults.left
        counter = self.counter
        while True:
            clear = left[CORRUPT_TLP]
            if clear >= count:
                left[CORRUPT_TLP] = clear - count
                counter.record_batch(category, batch, count)
                return
            left[CORRUPT_TLP] = 0
            counter.record_batch(category, batch, clear + 1)
            count -= clear + 1
            if faults.fire(CORRUPT_TLP):
                counter.record(category, batch)  # the replayed copy
                counter.record_event(EVT_TLP_REPLAY)
