"""Measurement helpers: latency summaries, throughput, report tables."""

from repro.metrics.ascii_plot import ascii_chart
from repro.metrics.energy import EnergyModel, EnergyReport, measure_energy
from repro.metrics.reporting import (
    format_bytes,
    format_latency_summary,
    format_table,
    format_traffic_breakdown,
)
from repro.metrics.stats import (
    LatencyRecorder,
    LatencySummary,
    NoSamplesError,
    reduction_pct,
    throughput_kops,
)

__all__ = [
    "LatencySummary",
    "LatencyRecorder",
    "NoSamplesError",
    "format_latency_summary",
    "throughput_kops",
    "reduction_pct",
    "format_table",
    "format_bytes",
    "format_traffic_breakdown",
    "EnergyModel",
    "EnergyReport",
    "measure_energy",
    "ascii_chart",
]
