"""ByteExpress reproduction: inline small-payload transfer over NVMe.

A full-stack functional + timing simulation of Park, Lee & Kim,
*ByteExpress: A High-Performance and Traffic-Efficient Inline Transfer of
Small Payloads over NVMe* (HotStorage '25): the NVMe protocol substrate
(SQ/CQ rings, PRP, SGL, doorbells), a PCIe TLP-level traffic/latency
model, an OpenSSD-style controller with NAND + FTL back-end, KV-SSD and
CSD personalities, and every transfer mechanism the paper compares —
PRP, SGL, BandSlim, the MMIO byte interface, ByteExpress, and the hybrid
threshold policy.

Quickstart::

    from repro import make_block_testbed

    tb = make_block_testbed()
    stats = tb.method("byteexpress").write(b"hello, inline world!")
    print(stats.latency_ns, stats.pcie_bytes)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured results of every figure and table.
"""

from repro.core import (
    CHUNK_SIZE,
    HybridPolicy,
    chunk_count,
    inspect_command,
    join_chunks,
    make_inline_command,
    split_payload,
)
from repro.csd import CORPUS, CsdClient, CsdPersonality, TableSchema
from repro.kvssd import KVStore, KvSsdPersonality
from repro.nvme import NvmeCommand, NvmeCompletion, PassthruRequest, PassthruResult
from repro.sim import LinkConfig, SimClock, SimConfig, TimingModel
from repro.ssd import BlockSsdPersonality, NvmeController, OpenSsd
from repro.testbed import (
    Testbed,
    make_block_testbed,
    make_csd_testbed,
    make_kv_testbed,
)
from repro.transfer import (
    AggregateStats,
    PassthruTransfer,
    TransferMethod,
    TransferStats,
    make_methods,
)
from repro.workloads import FillRandomWorkload, MixGraphWorkload

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # testbeds
    "Testbed",
    "make_block_testbed",
    "make_kv_testbed",
    "make_csd_testbed",
    # configuration
    "SimConfig",
    "SimClock",
    "LinkConfig",
    "TimingModel",
    # core ByteExpress
    "CHUNK_SIZE",
    "chunk_count",
    "split_payload",
    "join_chunks",
    "make_inline_command",
    "inspect_command",
    "HybridPolicy",
    # protocol
    "NvmeCommand",
    "NvmeCompletion",
    "PassthruRequest",
    "PassthruResult",
    # device
    "OpenSsd",
    "NvmeController",
    "BlockSsdPersonality",
    # transfer methods
    "TransferMethod",
    "TransferStats",
    "AggregateStats",
    "PassthruTransfer",
    "make_methods",
    # applications
    "KVStore",
    "KvSsdPersonality",
    "CsdClient",
    "CsdPersonality",
    "TableSchema",
    "CORPUS",
    # workloads
    "MixGraphWorkload",
    "FillRandomWorkload",
]
