"""Golden traffic-fingerprint guard for the datapath refactor (ISSUE 5).

The datapath-registry refactor moves the PRP and ByteExpress encode /
decode logic out of the driver and controller monoliths.  It must be a
pure code motion: the wire traffic (TLP counts and bytes per category),
the simulated clock, and the completion order must not change by a
single TLP or nanosecond.

``benchmarks/results/golden_datapath_parity.json`` was captured from the
pre-refactor tree with exactly the workload below; this test regenerates
the fingerprint on every benchmark (smoke) run and asserts equality.
The guard covers every transfer method: phase 1 (the synchronous
``TransferMethod.write`` sweep) runs for all of them, phase 2 (the QD>1
``driver.submit`` batch) only for methods with a host codec.  The
tagged variant runs on a ``MODE_TAGGED`` rig, the BAR-window methods on
a rig that maps the byte window.
Regenerate deliberately (a *justified* protocol change) with::

    PYTHONPATH=src python benchmarks/test_golden_datapath_parity.py
"""

from __future__ import annotations

import json
import pathlib

from repro.datapath import resolve
from repro.nvme.command import NvmeCommand
from repro.nvme.constants import IoOpcode, PAGE_SIZE
from repro.ssd.context import MODE_QUEUE_LOCAL, MODE_TAGGED
from repro.testbed import make_block_testbed

GOLDEN_PATH = (pathlib.Path(__file__).parent / "results"
               / "golden_datapath_parity.json")

#: Boundary-heavy payload sizes (1 B, chunk edges, page edges).
SIZES = (1, 32, 63, 64, 65, 256, 1024, 4095, 4096)
#: Methods the guard pins: the paper baseline and contribution first,
#: then every other transfer method.
METHODS = ("prp", "byteexpress", "sgl", "bandslim", "byteexpress-tagged",
           "mmio", "pio_coherent", "hybrid")
#: Ops in the queue-depth>1 completion-order phase.
BATCH_OPS = 8


def _payload(i: int, size: int) -> bytes:
    return bytes((i * 7 + j) & 0xFF for j in range(size))


def _fingerprint_method(method: str) -> dict:
    spec = resolve(method)
    tb = make_block_testbed(
        mode=MODE_TAGGED if spec.caps.tag_reassembly else MODE_QUEUE_LOCAL,
        include_mmio=spec.caps.bar_window)
    # Phase 1: synchronous transfer-method sweep over boundary sizes.
    statuses = []
    for i, size in enumerate(SIZES):
        stats = tb.method(method).write(
            _payload(i, size), cdw10=(i * PAGE_SIZE) & 0xFFFFFFFF)
        statuses.append(stats.status)
    out: dict = {"statuses": statuses}
    if spec.host_codec is not None:
        # Phase 2: QD>1 batch — one doorbell, reap all — pins completion
        # order.  Private DMA buffers for PRP/SGL at QD>1.
        qid = tb.driver.io_qids[0]
        cids = []
        for i in range(BATCH_OPS):
            cmd = NvmeCommand(opcode=IoOpcode.WRITE, nsid=1,
                              cdw10=(i * PAGE_SIZE) & 0xFFFFFFFF)
            cids.append(tb.driver.submit(method, cmd, _payload(i, 96), qid,
                                         ring=False, private_buffer=True))
        tb.driver.kick(qid)
        tb.ssd.controller.process_all()
        out["submit_cids"] = cids
        out["completion_order"] = [cqe.cid for cqe in tb.driver.reap(qid)]
    counter = tb.traffic
    return {
        **out,
        "clock_ns": round(tb.clock.now, 6),
        "total_bytes": counter.total_bytes,
        "tlp_breakdown": counter.tlp_breakdown(),
        "byte_breakdown": counter.breakdown(),
    }


def capture_fingerprint() -> dict:
    return {method: _fingerprint_method(method) for method in METHODS}


def test_golden_datapath_parity():
    assert GOLDEN_PATH.exists(), (
        f"golden fingerprint missing: {GOLDEN_PATH} — capture it on a "
        f"known-good tree with `python {pathlib.Path(__file__).name}`")
    golden = json.loads(GOLDEN_PATH.read_text())
    fresh = capture_fingerprint()
    for method in METHODS:
        assert fresh[method] == golden[method], (
            f"{method}: wire fingerprint diverged from the pre-refactor "
            f"golden capture")


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(capture_fingerprint(), indent=2,
                                      sort_keys=True) + "\n")
    print(f"captured {GOLDEN_PATH}")
