#!/usr/bin/env python3
"""Protocol introspection: watch ByteExpress on the wire.

Uses the nvme-cli-style tooling to show exactly what the mechanism does:
the command with its repurposed reserved field sitting in the submission
queue, the chunk entries behind it, the controller's view, and the
traffic ledger afterwards — the paper's Figure 3(d), live.

Run:  python examples/device_introspection.py
"""

from repro import make_block_testbed
from repro.nvme.command import NvmeCommand
from repro.nvme.constants import IoOpcode
from repro.tools import dump_controller, dump_queue, dump_traffic


def main() -> None:
    tb = make_block_testbed()
    payload = b"an inline payload riding the submission queue" * 3  # 138 B

    print("=== submit (not yet processed) " + "=" * 30)
    tb.driver.submit("byteexpress",
        NvmeCommand(opcode=IoOpcode.WRITE, cdw10=0), payload, qid=1)
    print(dump_queue(tb.driver, qid=1))

    print("\n=== controller before/after " + "=" * 33)
    print(dump_controller(tb.ssd))
    tb.ssd.controller.process_all()
    cqe = tb.driver.wait(1)
    print("completion status:", hex(cqe.status))
    print(dump_controller(tb.ssd))

    print("\n=== payload landed " + "=" * 42)
    got = tb.personality.read_back(0, len(payload))
    print(f"device DRAM holds {len(got)} B, byte-exact: {got == payload}")

    print("\n=== traffic ledger " + "=" * 42)
    print(dump_traffic(tb.ssd))

    print("\n=== batched submission (one doorbell, 8 ops) " + "=" * 16)
    engine = tb.make_engine(queues=1, qd=8)
    start_ns = tb.clock.now
    futures = [engine.submit(b"batch!" * 10) for _ in range(8)]
    engine.drain()
    elapsed_ns = tb.clock.now - start_ns
    print(f"8 writes: {elapsed_ns / 1000:.2f} us total, "
          f"{elapsed_ns / 8 / 1000:.2f} us/op, "
          f"all ok={all(f.ok for f in futures)}")


if __name__ == "__main__":
    main()
