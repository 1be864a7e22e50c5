"""Ablation (paper §3.3.2, future work): queue-local fetching vs
identifier-based out-of-order reassembly.

The tagged design relaxes the single-SQ ordering constraint at two costs:
8 header bytes per chunk (capacity 56 B instead of 64 B, i.e. more chunks
per payload) and reassembly-tracking SRAM.  The benefit is multi-queue
interleaving.  This ablation quantifies both.
"""

import pytest

from conftest import report, scaled_ops
from repro.core.reassembly import tagged_chunk_count
from repro.core.chunking import chunk_count
from repro.metrics import format_table
from repro.nvme.command import NvmeCommand
from repro.nvme.constants import IoOpcode
from repro.ssd.controller import MODE_TAGGED
from repro.testbed import make_block_testbed
from repro.transfer.byteexpress import TaggedByteExpressTransfer
from repro.workloads import fixed_size_payloads

SIZES = (64, 128, 256, 512, 1024)


@pytest.fixture(scope="module")
def comparison():
    out = {}
    local_tb = make_block_testbed()
    tagged_tb = make_block_testbed(mode=MODE_TAGGED)
    tagged = TaggedByteExpressTransfer(tagged_tb.driver)
    for size in SIZES:
        ops = scaled_ops(size)
        local = local_tb.method("byteexpress").run_workload(
            fixed_size_payloads(size, ops), cdw10=0)
        tag = tagged.run_workload(fixed_size_payloads(size, ops), cdw10=0)
        out[size] = {
            "local_traffic": local.pcie_bytes / local.ops,
            "tagged_traffic": tag.pcie_bytes / tag.ops,
            "local_latency": local.mean_latency_ns,
            "tagged_latency": tag.mean_latency_ns,
        }
    return out


def test_ablation_report(comparison, benchmark):
    rows = []
    for size in SIZES:
        c = comparison[size]
        rows.append([size, chunk_count(size), tagged_chunk_count(size),
                     f"{c['local_traffic']:.0f}", f"{c['tagged_traffic']:.0f}",
                     f"{c['local_latency'] / 1000:.2f}",
                     f"{c['tagged_latency'] / 1000:.2f}"])
    report("ablation_reassembly", format_table(
        ["payload (B)", "chunks (local)", "chunks (tagged)",
         "local B/op", "tagged B/op", "local us", "tagged us"], rows,
        title="Reassembly ablation — queue-local vs tagged out-of-order "
              "(8 B/chunk header cost)"))

    tb = make_block_testbed(mode=MODE_TAGGED)
    method = TaggedByteExpressTransfer(tb.driver)
    benchmark(lambda: method.write(b"x" * 128))


def test_tagged_never_cheaper(comparison):
    """Header overhead means tagged mode never beats queue-local on
    traffic or latency for a single queue."""
    for size in SIZES:
        c = comparison[size]
        assert c["tagged_traffic"] >= c["local_traffic"]
        assert c["tagged_latency"] >= c["local_latency"]


def test_overhead_bounded_by_capacity_ratio(comparison):
    """Traffic overhead is at most ~ the 64/56 capacity ratio + one chunk."""
    for size in SIZES:
        c = comparison[size]
        assert c["tagged_traffic"] / c["local_traffic"] < 64 / 56 + 0.35


def test_tagged_tolerates_multi_queue_interleaving():
    """The functional benefit: payloads across queues reassemble even
    though the controller interleaves chunk fetches round-robin."""
    tb = make_block_testbed(mode=MODE_TAGGED)
    expected = {}
    for i in range(8):
        qid = tb.driver.io_qids[i % len(tb.driver.io_qids)]
        payload = bytes([0x40 + i]) * 200
        tb.driver.submit("byteexpress-tagged",
            NvmeCommand(opcode=IoOpcode.WRITE, cdw10=i * 4096), payload,
            qid=qid, payload_id=100 + i)
        expected[i * 4096] = payload
    tb.ssd.controller.process_all()
    for offset, payload in expected.items():
        assert tb.personality.read_back(offset, 200) == payload
