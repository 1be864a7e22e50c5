"""Figure 5: PCIe traffic + average latency vs payload size, for NVMe PRP,
BandSlim and ByteExpress (NAND off, passthrough writes).

The paper's central figure.  Expected shapes (paper §4.2):

* traffic: ByteExpress cuts up to ~96 % vs PRP at 64 B and beats BandSlim
  across 64 B–4 KB (by up to ~40 % in the paper's accounting);
* latency: ByteExpress is ~40 % below PRP in the 32–128 B range, beats
  BandSlim beyond 64 B (72 % lower at 128 B), and crosses back over PRP
  around the 256–512 B mark.
"""

import pytest

from conftest import report, scaled_ops
from repro.metrics import format_table, reduction_pct
from repro.datapath import method_names
from repro.testbed import make_block_testbed
from repro.workloads import FIGURE5_SIZES, fixed_size_payloads

# The sweep set comes from the method table: any method listed with
# the figure5 cap joins the comparison automatically.
METHODS = method_names(figure5=True)


def _sweep():
    results = {}
    for method in METHODS:
        tb = make_block_testbed()  # fresh rig per method: clean counters
        for size in FIGURE5_SIZES:
            agg = tb.method(method).run_workload(
                fixed_size_payloads(size, scaled_ops(size)), cdw10=0)
            results[(method, size)] = (agg.pcie_bytes / agg.ops,
                                       agg.mean_latency_ns)
    return results


@pytest.fixture(scope="module")
def sweep():
    return _sweep()


def test_fig5_report(sweep, benchmark):
    rows = []
    for size in FIGURE5_SIZES:
        row = [size]
        for method in METHODS:
            traffic, latency = sweep[(method, size)]
            row += [f"{traffic:.0f}", f"{latency / 1000:.2f}"]
        rows.append(row)
    headers = ["payload (B)"]
    for method in METHODS:
        headers += [f"{method} B/op", f"{method} us/op"]
    report("fig5_methods_sweep", format_table(
        headers, rows,
        title="Figure 5 — traffic and latency by transfer method (NAND off)"))

    tb = make_block_testbed()
    benchmark(lambda: tb.method("byteexpress").write(b"x" * 64))


class TestTrafficShape:
    def test_byteexpress_vs_prp_at_64b(self, sweep):
        red = reduction_pct(sweep[("prp", 64)][0],
                            sweep[("byteexpress", 64)][0])
        assert red > 85  # paper: 96.3 %

    def test_byteexpress_beats_bandslim_64b_to_4kb(self, sweep):
        for size in (64, 128, 256, 512, 1024, 2048, 4096):
            assert sweep[("byteexpress", size)][0] <= \
                sweep[("bandslim", size)][0]

    def test_bandslim_wins_traffic_at_32b(self, sweep):
        assert sweep[("bandslim", 32)][0] < sweep[("byteexpress", 32)][0]


class TestLatencyShape:
    def test_byteexpress_vs_prp_32_128(self, sweep):
        best = max(reduction_pct(sweep[("prp", s)][1],
                                 sweep[("byteexpress", s)][1])
                   for s in (32, 64, 128))
        assert best > 30  # paper: up to 40.4 %

    def test_byteexpress_vs_bandslim_128b(self, sweep):
        red = reduction_pct(sweep[("bandslim", 128)][1],
                            sweep[("byteexpress", 128)][1])
        assert red > 55  # paper: 72 %

    def test_crossover_vs_prp(self, sweep):
        assert sweep[("byteexpress", 256)][1] < sweep[("prp", 256)][1]
        assert sweep[("byteexpress", 512)][1] > sweep[("prp", 512)][1]

    def test_bandslim_degrades_past_64b(self, sweep):
        assert sweep[("bandslim", 128)][1] > 1.5 * sweep[("bandslim", 64)][1]
