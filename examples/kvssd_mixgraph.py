#!/usr/bin/env python3
"""KV-SSD scenario (paper §4.3, Figure 6): MixGraph PUTs with NAND on.

Runs a Meta-like MixGraph PUT stream (GPD value sizes, >60 % under 32 B)
against the simulated LSM KV-SSD through PRP, BandSlim, and ByteExpress,
then prints per-method traffic and throughput plus the LSM engine's
internal activity — the workload class that motivates ByteExpress.

Run:  python examples/kvssd_mixgraph.py [ops]
"""

import sys

from repro import KVStore, MixGraphWorkload, make_kv_testbed
from repro.metrics import format_table
from repro.workloads import fraction_below, sample_value_sizes


def run_method(method_name: str, ops: int):
    tb = make_kv_testbed()
    store = KVStore(tb.driver, tb.method(method_name))
    start_ns = tb.clock.now
    start_bytes = tb.traffic.total_bytes
    for op in MixGraphWorkload(ops=ops, seed=0xF16):
        store.put(op.key, op.value)
    elapsed = tb.clock.now - start_ns
    kv = tb.personality
    return {
        "traffic": (tb.traffic.total_bytes - start_bytes) / ops,
        "kops": ops / elapsed * 1e6,
        "lsm_flushes": kv.index.flushes,
        "vlog_flushes": kv.vlog.flushes,
        "nand_programs": tb.ssd.nand.programs,
    }, tb, store


def main() -> None:
    ops = int(sys.argv[1]) if len(sys.argv) > 1 else 1000
    sizes = sample_value_sizes(ops, seed=0xF16)
    print(f"MixGraph: {ops} PUTs, "
          f"{fraction_below(sizes, 32) * 100:.0f}% of values under 32 B "
          f"(paper: >60%)\n")

    rows = []
    last = None
    for method in ("prp", "bandslim", "byteexpress"):
        result, tb, store = run_method(method, ops)
        last = (tb, store)
        rows.append([method, f"{result['traffic']:.0f}",
                     f"{result['kops']:.1f}", result["lsm_flushes"],
                     result["vlog_flushes"], result["nand_programs"]])
    print(format_table(
        ["PUT path", "PCIe B/op", "Kops/s", "LSM flushes", "vlog flushes",
         "NAND programs"],
        rows, title="Figure 6(a) scenario — KV-SSD, NAND enabled"))

    # The store is a real KV engine: read your data back.
    tb, store = last
    probe = next(iter(MixGraphWorkload(ops=1, seed=0xF16)))
    value = store.get(probe.key, max_value_len=64 * 1024)
    print(f"\nget({probe.key!r}) -> {len(value)} B (verified)")
    scan = list(tb.personality.scan(b"\x00"))
    print(f"full-range device-side scan: {len(scan)} live keys")


if __name__ == "__main__":
    main()
