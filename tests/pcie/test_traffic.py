"""Traffic counter accounting and conservation."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults.plan import CORRUPT_TLP, FaultInjector, FaultPlan
from repro.pcie.link import PCIeLink
from repro.pcie.tlp import (
    device_dma_read,
    device_dma_write,
    host_mmio_write,
    msix_interrupt,
)
from repro.pcie.traffic import (
    CAT_CMD_FETCH,
    CAT_DATA,
    CAT_DOORBELL,
    EVT_TLP_REPLAY,
    TrafficCounter,
)
from repro.sim.config import LinkConfig, TimingModel

LINK = LinkConfig()


def test_empty_counter():
    tc = TrafficCounter()
    assert tc.total_bytes == 0
    assert tc.tlp_count == 0
    assert tc.breakdown() == {}


def test_record_accumulates_by_category():
    tc = TrafficCounter()
    tc.record(CAT_DOORBELL, host_mmio_write(4, LINK))
    tc.record(CAT_DOORBELL, host_mmio_write(4, LINK))
    tc.record(CAT_CMD_FETCH, device_dma_read(64, LINK))
    assert tc.category(CAT_DOORBELL).total_bytes == 72
    assert tc.category(CAT_DOORBELL).tlp_count == 2
    assert set(tc.breakdown()) == {CAT_DOORBELL, CAT_CMD_FETCH}


def test_direction_split():
    tc = TrafficCounter()
    tc.record(CAT_DATA, device_dma_read(64, LINK))
    cat = tc.category(CAT_DATA)
    assert cat.upstream_bytes == 32      # MRd
    assert cat.downstream_bytes == 96    # CplD with 64 B
    assert tc.downstream_bytes + tc.upstream_bytes == tc.total_bytes


def test_reset():
    tc = TrafficCounter()
    tc.record(CAT_DATA, device_dma_read(64, LINK))
    tc.reset()
    assert tc.total_bytes == 0


@given(st.lists(st.integers(1, 8192), min_size=1, max_size=30))
def test_conservation_total_equals_sum_of_batches(sizes):
    """Counter total == sum of every recorded batch's wire bytes."""
    tc = TrafficCounter()
    expected = 0
    for i, n in enumerate(sizes):
        batch = device_dma_read(n, LINK)
        tc.record(f"cat{i % 3}", batch)
        expected += batch.total_bytes
    assert tc.total_bytes == expected
    assert sum(tc.breakdown().values()) == expected


_batches = st.sampled_from([host_mmio_write(4, LINK), device_dma_read(64, LINK),
                            device_dma_read(4096, LINK),
                            device_dma_write(16, LINK), msix_interrupt(LINK)])
_cats = st.sampled_from([CAT_DOORBELL, CAT_DATA, CAT_CMD_FETCH])
_updates = st.one_of(
    st.tuples(st.just("record"), _cats, _batches),
    st.tuples(st.just("record_batch"), _cats, _batches, st.integers(0, 40)),
    st.tuples(st.just("record_only"), _cats, _batches, st.integers(0, 40)),
    st.tuples(st.just("record_pair"), _cats, _batches, _cats, _batches),
    st.tuples(st.just("reset")),
)


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 0.05, 0.5, 1.0]),
       st.lists(_updates, max_size=40))
@example(seed=1, rate=1.0,
         updates=[("record_only", CAT_DATA, device_dma_read(64, LINK), 5)])
@settings(max_examples=200, deadline=None)
def test_running_total_matches_the_categories(seed, rate, updates):
    """``total_bytes`` is a running integer: after any interleaving of
    every path that adds bytes (the link's inlined copies and its
    ``corrupt_tlp`` replays included) and resets, it equals both the
    per-category sum and the per-direction sum."""
    tc = TrafficCounter()
    plan = FaultPlan(seed=seed, rates={CORRUPT_TLP: rate}) if rate else None
    link = PCIeLink(LINK, TimingModel(), tc,
                    injector=FaultInjector(plan, counter=tc))
    replays = 0
    for update in updates:
        kind, args = update[0], update[1:]
        if kind == "record":
            tc.record(*args)
        elif kind == "record_batch":
            tc.record_batch(*args)
        elif kind == "record_only":
            link.record_only(*args)
        elif kind == "record_pair":
            link.record_pair(*args)
        else:
            replays += tc.event_count(EVT_TLP_REPLAY)
            tc.reset()
        assert tc.total_bytes == sum(tc.breakdown().values())
        assert tc.total_bytes == tc.downstream_bytes + tc.upstream_bytes
    replays += tc.event_count(EVT_TLP_REPLAY)
    if rate == 1.0 and any(u[0] == "record_only" and u[3] for u in updates):
        assert replays  # the replay path ran
