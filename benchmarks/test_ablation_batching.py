"""Ablation: submission batching (queue depth) on top of each method.

§4.2 attributes part of BandSlim's cost to "doorbell ringing, tail
pointer address updates" per command.  This ablation shows how much of
any method's per-op cost is doorbell/submission amortisable: an
``IoEngine`` pinned to one queue at ``qd=depth`` submits a batch of
writes, and its poll round publishes them with one tail update and
reaps them with one CQ head update — so per-op latency and doorbell
traffic drop as the batch grows, and ByteExpress keeps its advantage
at every depth.
"""

import pytest

from conftest import report
from repro.metrics import format_table
from repro.testbed import make_block_testbed

DEPTHS = (1, 2, 4, 8, 16, 32)
SIZE = 64


def _batch(tb, engine, payloads, method):
    """Submit *payloads* as one batch and drain it; returns the batch's
    (elapsed ns, PCIe bytes)."""
    start_ns, start_bytes = tb.clock.now, tb.traffic.total_bytes
    futures = [engine.submit(p, method=method) for p in payloads]
    engine.drain()
    assert all(f.ok for f in futures)
    return tb.clock.now - start_ns, tb.traffic.total_bytes - start_bytes


@pytest.fixture(scope="module")
def sweep():
    out = {}
    for method in ("prp", "byteexpress"):
        tb = make_block_testbed()
        for depth in DEPTHS:
            engine = tb.make_engine(queues=1, qd=depth)
            payloads = [bytes([i]) * SIZE for i in range(depth)]
            # Repeat to stabilise the mean.
            total_ns, total_bytes, ops = 0.0, 0, 0
            for _ in range(max(1, 64 // depth)):
                elapsed_ns, pcie_bytes = _batch(tb, engine, payloads, method)
                total_ns += elapsed_ns
                total_bytes += pcie_bytes
                ops += depth
            out[(method, depth)] = (total_ns / ops, total_bytes / ops)
    return out


def test_ablation_report(sweep, benchmark):
    rows = []
    for depth in DEPTHS:
        rows.append([depth,
                     f"{sweep[('prp', depth)][0] / 1000:.2f}",
                     f"{sweep[('byteexpress', depth)][0] / 1000:.2f}",
                     f"{sweep[('prp', depth)][1]:.0f}",
                     f"{sweep[('byteexpress', depth)][1]:.0f}"])
    report("ablation_batching", format_table(
        ["batch", "prp us/op", "bexp us/op", "prp B/op", "bexp B/op"],
        rows, title=f"Batching ablation — {SIZE} B writes, one doorbell "
                    "per batch"))

    tb = make_block_testbed()
    engine = tb.make_engine(queues=1, qd=8)
    payloads = [b"x" * SIZE] * 8
    benchmark(lambda: _batch(tb, engine, payloads, "byteexpress"))


def test_per_op_latency_improves_with_depth(sweep):
    for method in ("prp", "byteexpress"):
        assert sweep[(method, 32)][0] < sweep[(method, 1)][0]


def test_doorbell_traffic_amortises(sweep):
    for method in ("prp", "byteexpress"):
        assert sweep[(method, 32)][1] < sweep[(method, 1)][1]


def test_byteexpress_wins_at_every_depth(sweep):
    for depth in DEPTHS:
        assert sweep[("byteexpress", depth)][0] < sweep[("prp", depth)][0]
        assert sweep[("byteexpress", depth)][1] < sweep[("prp", depth)][1]
