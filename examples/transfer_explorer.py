#!/usr/bin/env python3
"""Transfer-method explorer: sweep payload sizes, find the crossovers.

Regenerates the Figure-5 sweep interactively, prints the per-size winner,
locates the ByteExpress/PRP crossover, and demonstrates the paper's §4.2
hybrid remedy and the §3.3.2 tagged out-of-order variant.

Run:  python examples/transfer_explorer.py [--gen N]
"""

import argparse

from repro import LinkConfig, PassthruTransfer, SimConfig, make_block_testbed
from repro.datapath import names, resolve
from repro.metrics import format_table
from repro.ssd.controller import MODE_TAGGED
from repro.testbed import make_block_testbed as _mk

SIZES = (32, 64, 128, 256, 512, 1024, 2048, 4096)
METHODS = ("prp", "sgl", "bandslim", "byteexpress", "hybrid")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--gen", type=int, default=2,
                        help="PCIe generation (paper testbed: 2)")
    args = parser.parse_args()

    cfg = SimConfig(link=LinkConfig(generation=args.gen)).nand_off()
    tb = make_block_testbed(config=cfg)
    print(f"PCIe Gen{args.gen} x{cfg.link.lanes} — "
          f"{cfg.link.bytes_per_ns:.1f} GB/s effective\n")

    rows = []
    crossover = None
    for size in SIZES:
        latencies = {m: tb.method(m).write(bytes(size), cdw10=0).latency_ns
                     for m in METHODS}
        winner = min(latencies, key=latencies.get)
        if crossover is None and latencies["byteexpress"] > latencies["prp"]:
            crossover = size
        rows.append([size] + [f"{latencies[m] / 1000:.2f}" for m in METHODS]
                    + [winner])
    print(format_table(["payload (B)"] + [f"{m} us" for m in METHODS]
                       + ["winner"], rows,
                       title="latency by method and size"))
    print(f"\nByteExpress/PRP crossover: "
          f"{'none in range' if crossover is None else f'{crossover} B'} "
          f"(paper: around 256 B on Gen2)")

    # Tagged out-of-order variant (paper §3.3.2 future work).
    tagged_tb = _mk(mode=MODE_TAGGED)
    tagged = PassthruTransfer(tagged_tb.driver,
                              resolve(names.BYTEEXPRESS_TAGGED))
    size = 512
    local = tb.method("byteexpress").write(bytes(size))
    ooo = tagged.write(bytes(size))
    print(f"\ntagged reassembly overhead at {size} B: "
          f"{local.pcie_bytes} -> {ooo.pcie_bytes} wire bytes "
          f"(8 B/chunk headers)")


if __name__ == "__main__":
    main()
