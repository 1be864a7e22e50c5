"""Timing jitter: seeded dispersion, zero by default."""

import pytest

from repro.sim.clock import SimClock
from repro.sim.config import SimConfig
from repro.testbed import make_block_testbed


def test_default_is_deterministic():
    clk = SimClock()
    clk.advance(100)
    assert clk.now == 100.0


def test_jitter_perturbs_durations():
    clk = SimClock(jitter=0.1, seed=42)
    samples = []
    for _ in range(200):
        before = clk.now
        clk.advance(100)
        samples.append(clk.now - before)
    assert len(set(samples)) > 100          # dispersed
    mean = sum(samples) / len(samples)
    assert mean == pytest.approx(100, rel=0.1)  # centred on the nominal
    assert all(s > 0 for s in samples)       # never negative


def test_jitter_is_seeded():
    def run(seed):
        clk = SimClock(jitter=0.05, seed=seed)
        out = []
        for _ in range(10):
            before = clk.now
            clk.advance(50)
            out.append(clk.now - before)
        return out

    assert run(1) == run(1)
    assert run(1) != run(2)


def test_zero_advance_unjittered():
    clk = SimClock(jitter=0.5)
    clk.advance(0)
    assert clk.now == 0


def test_negative_jitter_rejected():
    with pytest.raises(ValueError):
        SimClock(jitter=-0.1)


def test_jittered_testbed_produces_percentile_spread():
    cfg = SimConfig(timing_jitter=0.05).nand_off()
    tb = make_block_testbed(config=cfg)
    agg = tb.method("byteexpress").run_workload(
        [b"x" * 64 for _ in range(100)], cdw10=0)
    summary = agg.latency.summary()
    assert summary.p99 > summary.p1          # real error bars
    assert summary.p99 < summary.mean * 1.5  # but not absurd ones


def test_jittered_run_is_reproducible():
    def run():
        cfg = SimConfig(timing_jitter=0.05).nand_off()
        tb = make_block_testbed(config=cfg)
        return [tb.method("byteexpress").write(b"x" * 64).latency_ns
                for _ in range(10)]

    assert run() == run()
