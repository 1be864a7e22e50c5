"""ByteExpress transfer method behaviour + tagged variant."""

import pytest

from repro.datapath import names, resolve
from repro.ssd.controller import MODE_TAGGED
from repro.testbed import make_block_testbed
from repro.transfer import PassthruTransfer


def test_single_command_any_size():
    tb = make_block_testbed()
    for size in (1, 64, 1000, 8192):
        assert tb.method("byteexpress").write(b"x" * size).commands == 1


def test_traffic_scales_with_chunks():
    tb = make_block_testbed()
    t64 = tb.method("byteexpress").write(b"x" * 64).pcie_bytes
    t128 = tb.method("byteexpress").write(b"x" * 128).pcie_bytes
    t256 = tb.method("byteexpress").write(b"x" * 256).pcie_bytes
    chunk_wire = 128  # MRd(32) + CplD(96) per 64 B chunk
    assert t128 - t64 == chunk_wire
    assert t256 - t128 == 2 * chunk_wire


def test_latency_steps_per_chunk():
    tb = make_block_testbed()
    timing = tb.ssd.config.timing
    l64 = tb.method("byteexpress").write(b"x" * 64).latency_ns
    l128 = tb.method("byteexpress").write(b"x" * 128).latency_ns
    per_chunk = timing.chunk_fetch_ns + timing.chunk_submit_ns
    assert l128 - l64 == pytest.approx(per_chunk)


def test_tagged_variant_roundtrip():
    tb = make_block_testbed(mode=MODE_TAGGED)
    method = PassthruTransfer(tb.driver, resolve(names.BYTEEXPRESS_TAGGED))
    payload = bytes(range(256)) * 2
    stats = method.write(payload, cdw10=0)
    assert stats.ok
    assert tb.personality.read_back(0, len(payload)) == payload


def test_tagged_needs_more_chunks_than_queue_local():
    """Tagged chunks carry 56 B instead of 64 B: the ordering-relaxation
    overhead the reassembly ablation quantifies."""
    tb_local = make_block_testbed()
    tb_tagged = make_block_testbed(mode=MODE_TAGGED)
    tagged = PassthruTransfer(tb_tagged.driver,
                              resolve(names.BYTEEXPRESS_TAGGED))
    size = 56 * 8  # 8 tagged chunks, 7 queue-local chunks
    t_local = tb_local.method("byteexpress").write(b"x" * size).pcie_bytes
    t_tagged = tagged.write(b"x" * size).pcie_bytes
    assert t_tagged > t_local
