"""PCIeLink timing + accounting behaviour."""

import pytest

from repro.faults.plan import CORRUPT_TLP, CUT_TLP, CrashCut, CrashPlan
from repro.pcie import tlp as tlpmod
from repro.pcie.link import PCIeLink
from repro.pcie.tlp import device_dma_read
from repro.pcie.traffic import (
    CAT_DATA,
    CAT_DOORBELL,
    CAT_MMIO_DATA,
    TrafficCounter,
)
from repro.sim.config import LinkConfig, TimingModel

LINK = LinkConfig()
TIMING = TimingModel()


@pytest.fixture
def link():
    return PCIeLink(LINK, TIMING, TrafficCounter())


def test_serialisation_time(link):
    # Gen2 x8 = 4 bytes/ns
    assert link.serialisation_ns(4096) == pytest.approx(1024.0)


def test_mmio_write_records_and_times(link):
    ns = link.host_mmio_write(4, CAT_DOORBELL)
    assert ns == pytest.approx(36 / 4 + TIMING.link_propagation_ns)
    assert link.counter.category(CAT_DOORBELL).total_bytes == 36


def test_host_mmio_read_costs_round_trip(link):
    ns = link.host_mmio_read(4, CAT_DOORBELL)
    write_ns = link.host_mmio_write(4, CAT_DOORBELL)
    assert ns > write_ns  # reads stall for the completion


def test_larger_transfers_take_longer(link):
    assert (link.host_mmio_write(64, CAT_MMIO_DATA)
            > link.host_mmio_write(4, CAT_MMIO_DATA))


def test_faster_generation_reduces_wire_time():
    gen2 = PCIeLink(LinkConfig(generation=2), TIMING)
    gen4 = PCIeLink(LinkConfig(generation=4), TIMING)
    assert gen4.serialisation_ns(4096) < gen2.serialisation_ns(4096) / 3


def test_record_only_rejects_a_negative_count(link):
    """Same contract as ``record_batch``: a negative count neither
    subtracts bytes nor refunds ``corrupt_tlp`` countdown steps."""
    batch = device_dma_read(64, LINK)
    link.record_only(CAT_DATA, batch, 2)
    left = dict(link.faults.left)
    with pytest.raises(ValueError, match="non-negative"):
        link.record_only(CAT_DATA, batch, -1)
    assert link.counter.breakdown() == {CAT_DATA: 2 * batch.total_bytes}
    assert link.counter.total_bytes == 2 * batch.total_bytes
    assert link.faults.left == left


def test_record_only_zero_count_records_nothing(link):
    batch = device_dma_read(64, LINK)
    link.record_only(CAT_DATA, batch, 0)
    reference = TrafficCounter()
    reference.record_batch(CAT_DATA, batch, 0)
    assert link.counter.breakdown() == reference.breakdown() == {}
    assert link.counter.total_bytes == 0
    assert link.faults.opportunities[CORRUPT_TLP] == 0


@pytest.mark.parametrize("generation,lanes,header", [
    (generation, lanes, header)
    for generation in (1, 2, 3, 4, 5)
    for lanes in (1, 4, 8, 16)
    for header in (24, 16)])
def test_prebuilt_doorbell_matches_the_generic_path(generation, lanes,
                                                    header):
    """The prebuilt 4 B MMIO write returns the same float, and records
    the same bytes and TLPs, as building the batch per call."""
    config = LinkConfig(generation=generation, lanes=lanes,
                        tlp_header_bytes=header)
    batch = tlpmod.host_mmio_write(4, config)
    want_ns = (batch.downstream_bytes / config.bytes_per_ns
               + TIMING.link_propagation_ns)
    link = PCIeLink(config, TIMING, TrafficCounter())
    for category in (CAT_DOORBELL, CAT_MMIO_DATA):
        assert link.host_mmio_write(4, category) == want_ns
        got = link.counter.category(category)
        assert (got.downstream_bytes, got.upstream_bytes, got.tlp_count) == (
            batch.downstream_bytes, batch.upstream_bytes, batch.tlp_count)
    assert link.counter.total_bytes == 2 * batch.total_bytes


@pytest.mark.parametrize("cut", range(7))
def test_prebuilt_doorbell_is_still_a_tlp_cut_site(cut):
    """A ``CUT_TLP`` crash plan lands on the same opportunity, with the
    same TLPs on the wire, whether the MMIO writes take the prebuilt
    4 B doorbell or the generic (8 B) path."""
    def run(mmio_bytes):
        link = PCIeLink(LINK, TIMING, TrafficCounter())
        link.faults.arm_crash(CrashPlan(CUT_TLP, cut))
        steps = [lambda: link.host_mmio_write(mmio_bytes, CAT_DOORBELL),
                 lambda: link.record_only(CAT_DATA,
                                          device_dma_read(64, LINK)),
                 lambda: link.host_mmio_write(mmio_bytes, CAT_DOORBELL),
                 lambda: link.record_only(CAT_DATA,
                                          device_dma_read(64, LINK), 3),
                 lambda: link.host_mmio_write(mmio_bytes, CAT_DOORBELL)]
        for step, action in enumerate(steps):
            try:
                action()
            except CrashCut as exc:
                return (step, exc.cut_kind, exc.cut_index,
                        link.counter.tlp_breakdown())
        return None

    got = run(4)
    assert got is not None and got[1:3] == (CUT_TLP, cut)
    assert got == run(8)
