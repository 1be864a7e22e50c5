"""Batched submission (queue depth > 1): an ``IoEngine`` pinned to one
queue at ``qd=depth``, whose poll round rings one SQ doorbell for the
batch and one CQ doorbell for its completions."""

import pytest

from repro.pcie.traffic import CAT_DOORBELL
from repro.testbed import make_block_testbed


@pytest.fixture
def tb():
    return make_block_testbed()


def _payloads(n, size=64):
    return [bytes([i % 256]) * size for i in range(n)]


def _batch(tb, payloads, method="byteexpress", offsets=None):
    """Submit *payloads* as one batch and drain it; returns the futures
    and the batch's elapsed simulated time."""
    engine = tb.make_engine(queues=1, qd=len(payloads))
    offsets = offsets if offsets is not None else [0] * len(payloads)
    start_ns = tb.clock.now
    futures = [engine.submit(p, method=method, cdw10=off)
               for p, off in zip(payloads, offsets)]
    engine.drain()
    return futures, tb.clock.now - start_ns


def test_batch_delivers_all_payloads(tb):
    payloads = _payloads(8)
    offsets = [i * 4096 for i in range(8)]
    futures, _ = _batch(tb, payloads, offsets=offsets)
    assert all(f.ok for f in futures)
    for off, payload in zip(offsets, payloads):
        assert tb.personality.read_back(off, len(payload)) == payload


def test_batch_prp_path(tb):
    payloads = _payloads(4, size=5000)  # multi-page PRP each
    offsets = [i * 8192 for i in range(4)]
    futures, _ = _batch(tb, payloads, method="prp", offsets=offsets)
    assert all(f.ok for f in futures)
    for off, payload in zip(offsets, payloads):
        assert tb.personality.read_back(off, len(payload)) == payload


def test_batch_rings_one_doorbell(tb):
    before = tb.traffic.category(CAT_DOORBELL).tlp_count
    _batch(tb, _payloads(16))
    after = tb.traffic.category(CAT_DOORBELL).tlp_count
    # 1 SQ tail ring + 1 CQ head update for the whole batch.
    assert after - before == 2


def test_batching_amortises_per_op_cost(tb):
    _, single_ns = _batch(tb, _payloads(1))
    _, batched_ns = _batch(tb, _payloads(16))
    assert batched_ns / 16 < single_ns


def test_batch_temp_pages_freed(tb):
    before = tb.driver.memory.mapped_pages
    _batch(tb, _payloads(8, size=4096), method="prp")
    assert tb.driver.memory.mapped_pages == before


def test_statuses_reported_per_op(tb):
    futures, _ = _batch(tb, _payloads(3))
    assert [f.status for f in futures] == [0, 0, 0]
