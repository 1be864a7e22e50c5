"""LinkConfig bandwidth math and SimConfig semantics."""

import pytest

from repro.sim.config import LinkConfig, SimConfig, TimingModel


def test_gen2_x8_bandwidth():
    # 5 GT/s * 8b/10b * 8 lanes / 8 bits = 4 GB/s = 4 bytes/ns.
    link = LinkConfig(generation=2, lanes=8)
    assert link.bytes_per_ns == pytest.approx(4.0)


def test_gen3_uses_128b130b():
    link = LinkConfig(generation=3, lanes=4)
    assert link.bytes_per_ns == pytest.approx(8.0 * (128 / 130) * 4 / 8)


def test_gen1_half_of_gen2():
    g1 = LinkConfig(generation=1, lanes=8)
    g2 = LinkConfig(generation=2, lanes=8)
    assert g1.bytes_per_ns == pytest.approx(g2.bytes_per_ns / 2)


def test_with_generation_copies():
    base = LinkConfig()
    faster = base.with_generation(4)
    assert faster.generation == 4
    assert faster.lanes == base.lanes
    assert base.generation == 2  # original untouched


def test_lanes_scale_linearly():
    x4 = LinkConfig(lanes=4)
    x16 = LinkConfig(lanes=16)
    assert x16.bytes_per_ns == pytest.approx(4 * x4.bytes_per_ns)


def test_default_matches_paper_testbed():
    cfg = SimConfig()
    assert cfg.link.generation == 2
    assert cfg.link.lanes == 8
    assert cfg.nand_enabled is True


@pytest.mark.parametrize("kwargs", [
    {"fetch_lanes": 0},
    {"lba_bytes": 0},
    {"lba_bytes": -512},
    {"lba_bytes": 3000},
])
def test_config_rejects_out_of_range_fields(kwargs):
    with pytest.raises(ValueError):
        SimConfig(**kwargs)


def test_nand_off_copy():
    cfg = SimConfig()
    off = cfg.nand_off()
    assert off.nand_enabled is False
    assert cfg.nand_enabled is True
    assert off.link is cfg.link
    assert off.timing is cfg.timing


def test_table1_base_path_is_2400ns():
    """Paper Table 1: the PRP controller fetch path is ~2400 ns."""
    t = TimingModel()
    assert t.doorbell_poll_ns + t.cmd_fetch_logic_ns == pytest.approx(2400.0)


def test_table1_per_chunk_costs():
    """Paper §4.2: ~30 ns per chunk insert, ~400 ns per chunk fetch."""
    t = TimingModel()
    assert t.chunk_submit_ns == pytest.approx(30.0)
    assert t.chunk_fetch_ns == pytest.approx(400.0)


def test_timing_model_frozen():
    t = TimingModel()
    with pytest.raises(Exception):
        t.chunk_fetch_ns = 1.0
