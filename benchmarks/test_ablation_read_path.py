"""Ablation (paper §5): small reads — PRP vs SGL bit-bucket.

For writes the paper builds ByteExpress; for reads it points at SGL's
bit-bucket descriptors as the small-I/O remedy ("enabling completion of
small-data read requests without requiring data return").  This bench
quantifies that: reading 64 B of a 4 KB logical block costs a full block
of return traffic under PRP but only the wanted bytes with a bit bucket.
Both reads are the same synchronous passthrough, so both pay the ioctl.
"""

import pytest

from conftest import report
from repro.metrics import format_table
from repro.nvme.constants import IoOpcode
from repro.nvme.passthrough import PassthruRequest
from repro.testbed import make_block_testbed

WANTS = (64, 256, 1024, 4096)
BLOCK = 4096


def _prp_read(tb, want):
    before = tb.traffic.total_bytes
    t0 = tb.clock.now
    r = tb.driver.passthru(PassthruRequest(opcode=IoOpcode.READ,
                                           read_len=want, cdw10=0))
    assert r.ok
    return tb.traffic.total_bytes - before, tb.clock.now - t0


def _bucket_read(tb, want):
    before = tb.traffic.total_bytes
    t0 = tb.clock.now
    r = tb.driver.passthru(PassthruRequest(opcode=IoOpcode.READ,
                                           read_len=want, cdw10=0),
                           method="sgl")
    assert r.ok
    return tb.traffic.total_bytes - before, tb.clock.now - t0


@pytest.fixture(scope="module")
def sweep():
    tb = make_block_testbed()
    tb.method("prp").write(b"R" * BLOCK, cdw10=0)
    out = {}
    for want in WANTS:
        out[("prp", want)] = _prp_read(tb, want)
        out[("bitbucket", want)] = _bucket_read(tb, want)
    return out


def test_ablation_report(sweep, benchmark):
    rows = []
    for want in WANTS:
        rows.append([want,
                     f"{sweep[('prp', want)][0]}",
                     f"{sweep[('bitbucket', want)][0]}",
                     f"{sweep[('prp', want)][1] / 1000:.2f}",
                     f"{sweep[('bitbucket', want)][1] / 1000:.2f}"])
    report("ablation_read_path", format_table(
        ["wanted (B)", "prp read B", "bit-bucket B", "prp us",
         "bit-bucket us"], rows,
        title=f"Read-path ablation — small reads of a {BLOCK} B block"))

    tb = make_block_testbed()
    tb.method("prp").write(b"R" * BLOCK, cdw10=0)
    benchmark(lambda: _bucket_read(tb, 64))


def test_bit_bucket_cuts_small_read_traffic(sweep):
    assert sweep[("bitbucket", 64)][0] < sweep[("prp", 64)][0] / 4


def test_descriptor_overhead_eats_the_latency_gain(sweep):
    """The wire-time saving is offset by segment fetch + descriptor
    parsing — §5's exact argument for why ByteExpress avoids descriptor
    handling: latency stays within a few percent of PRP even though
    traffic drops 10x."""
    prp_ns = sweep[("prp", 64)][1]
    bucket_ns = sweep[("bitbucket", 64)][1]
    assert bucket_ns == pytest.approx(prp_ns, rel=0.05)


def test_converges_at_full_block(sweep):
    """Wanting the whole block: the bucket is empty, costs comparable."""
    prp = sweep[("prp", BLOCK)][0]
    bucket = sweep[("bitbucket", BLOCK)][0]
    assert abs(prp - bucket) / prp < 0.15
