"""Metrics helpers: summaries, throughput, tables."""

import pytest

from repro.metrics import (
    LatencyRecorder,
    LatencySummary,
    format_bytes,
    format_table,
    reduction_pct,
    throughput_kops,
)


def test_summary_basics():
    s = LatencySummary.from_samples([1000.0] * 99 + [2000.0])
    assert s.count == 100
    assert s.mean == pytest.approx(1010.0)
    assert s.p50 == 1000.0
    assert s.minimum == 1000.0 and s.maximum == 2000.0
    assert s.mean_us == pytest.approx(1.01)


def test_percentiles_ordered():
    s = LatencySummary.from_samples(list(range(1, 1001)))
    assert s.p1 <= s.p50 <= s.p99


def test_empty_summary_rejected():
    with pytest.raises(ValueError):
        LatencySummary.from_samples([])


def test_recorder():
    rec = LatencyRecorder()
    for v in (10, 20, 30):
        rec.record(v)
    assert len(rec) == 3
    assert rec.summary().mean == 20
    with pytest.raises(ValueError):
        rec.record(-1)


def test_throughput():
    assert throughput_kops(1000, 1e9) == pytest.approx(1.0)  # 1k ops/sec
    with pytest.raises(ValueError):
        throughput_kops(10, 0)


def test_reduction_pct():
    assert reduction_pct(100, 60) == pytest.approx(40.0)
    assert reduction_pct(0, 60) == 0.0
    assert reduction_pct(100, 130) == pytest.approx(-30.0)


def test_format_table_alignment():
    out = format_table(["size", "latency"], [[32, 1.5], [4096, 12.25]],
                       title="demo")
    lines = out.splitlines()
    assert lines[0] == "demo"
    assert "size" in lines[1] and "latency" in lines[1]
    assert len(lines) == 5


def test_format_table_row_width_checked():
    with pytest.raises(ValueError):
        format_table(["a", "b"], [[1]])


def test_format_bytes():
    assert format_bytes(512) == "512 B"
    assert format_bytes(2048) == "2.00 KiB"
    assert format_bytes(5 * 1024 * 1024) == "5.00 MiB"
