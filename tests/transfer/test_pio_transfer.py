"""Coherent-link PIO comparator: loads/stores only, no NVMe machinery."""

import pytest

from repro.datapath import method_names
from repro.kvssd.commands import encode_store_payload
from repro.nvme.constants import KvOpcode, StatusCode
from repro.pcie.mmio import BYTE_WINDOW_SIZE
from repro.testbed import make_block_testbed, make_kv_testbed


class TestRegistration:
    def test_listed_in_the_figure5_sweep(self):
        assert "pio_coherent" in method_names(figure5=True)

    def test_gated_by_the_bar_window_flag(self):
        assert "pio_coherent" not in make_block_testbed(
            include_mmio=False).methods
        assert "pio_coherent" in make_block_testbed(
            include_mmio=True).methods


class TestDatapath:
    def test_write_succeeds_and_reads_back(self):
        tb = make_block_testbed(include_mmio=True)
        payload = bytes(range(256)) * 2
        stats = tb.method("pio_coherent").write(payload)
        assert stats.status == StatusCode.SUCCESS
        # The command-less BAR path carries no offset: payloads land at
        # the start of the logical space.
        assert tb.personality.read_back(0, len(payload)) == payload

    def test_no_doorbells_no_command_fetch_no_cqes(self):
        tb = make_block_testbed(include_mmio=True)
        before = dict(tb.traffic.breakdown())
        stats = tb.method("pio_coherent").write(b"x" * 512)
        after = tb.traffic.breakdown()
        for cat in ("doorbell", "cmd_fetch", "cqe", "shadow_sync"):
            assert after.get(cat, 0) == before.get(cat, 0), cat
        assert after.get("pio_data", 0) > before.get("pio_data", 0)
        assert stats.commands == 0

    def test_store_pipeline_undercuts_the_mmio_comparator(self):
        tb = make_kv_testbed(include_mmio=True)
        payload = encode_store_payload(b"key", b"v" * 256)
        pio = tb.method("pio_coherent").write(
            payload, opcode=KvOpcode.STORE).latency_ns
        mmio = tb.method("mmio").write(
            payload, opcode=KvOpcode.STORE).latency_ns
        assert pio < mmio

    def test_kv_store_via_coherent_stores(self):
        tb = make_kv_testbed(include_mmio=True)
        payload = encode_store_payload(b"pio-key", b"p" * 200)
        stats = tb.method("pio_coherent").write(payload,
                                                opcode=KvOpcode.STORE)
        assert stats.status == StatusCode.SUCCESS
        assert tb.personality.peek(b"pio-key") == b"p" * 200

    def test_payload_counter_ticks(self):
        tb = make_block_testbed(include_mmio=True)
        iface = tb.method("pio_coherent").interface
        tb.method("pio_coherent").write(b"x" * 100)
        assert iface.payloads == 1


class TestLimits:
    def test_empty_payload_rejected(self):
        tb = make_block_testbed(include_mmio=True)
        with pytest.raises(ValueError, match="requires a payload"):
            tb.method("pio_coherent").write(b"")

    def test_window_size_enforced(self):
        tb = make_block_testbed(include_mmio=True)
        with pytest.raises(ValueError, match="byte window"):
            tb.method("pio_coherent").write(b"x" * (BYTE_WINDOW_SIZE + 1))
