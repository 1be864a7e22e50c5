"""Latency / throughput statistics.

The paper reports means with 1st–99th percentile error bars (Figure 6);
this module provides the same summaries over per-operation samples.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class NoSamplesError(ValueError):
    """Raised when a summary is requested over zero samples.

    Subclasses :class:`ValueError` so callers written against the old
    behaviour (``pytest.raises(ValueError)``) keep working, while report
    paths can catch the typed error and render "no samples" instead of
    crashing on a zero-op run.
    """


@dataclass(frozen=True)
class LatencySummary:
    """Summary of a latency sample set (all values in nanoseconds)."""

    count: int
    mean: float
    p1: float
    p50: float
    p99: float
    minimum: float
    maximum: float
    #: 99.9th percentile — the tail the multi-stream engine reports
    #: (loaded-system SLOs live here, not at the mean).
    p999: float = 0.0

    @classmethod
    def empty(cls) -> "LatencySummary":
        """The summary of zero samples: count 0, every statistic 0.0."""
        return cls(count=0, mean=0.0, p1=0.0, p50=0.0, p99=0.0,
                   minimum=0.0, maximum=0.0, p999=0.0)

    #: Percentile ranks every summary reports.  Kept as ranks and divided
    #: by 100 at use: ``np.percentile(arr, 99.9)`` divides internally, and
    #: 99.9/100 is one ulp above the literal 0.999 — writing the fraction
    #: directly shifts the virtual index enough to change the p99.9 lerp
    #: on roughly half of all sample sets (worst at small n, where one
    #: index ulp crosses a sample boundary).
    _PCT_RANKS = (1.0, 50.0, 99.0, 99.9)

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencySummary":
        """Summarize *samples* with one sort and one vectorized pass.

        The load generator summarizes per-stream and aggregate sample
        sets on every report, so this is a hot path: the array is sorted
        once, all four percentiles come from a single vectorized linear
        interpolation over the sorted data (the same 'linear' method as
        :func:`np.percentile`, bit-for-bit), and min/max fall out of the
        sorted ends instead of separate full-array scans.
        """
        arr = np.asarray(samples, dtype=np.float64)
        if arr.size == 0:
            raise NoSamplesError("cannot summarize an empty sample set")
        arr = np.sort(arr)
        index = (np.asarray(cls._PCT_RANKS) / 100.0) * (arr.size - 1)
        lo = arr[np.floor(index).astype(np.intp)]
        hi = arr[np.ceil(index).astype(np.intp)]
        frac = index - np.floor(index)
        # NumPy's two-sided lerp (matches np.percentile exactly).
        diff = hi - lo
        p1, p50, p99, p999 = np.where(frac >= 0.5,
                                      hi - diff * (1.0 - frac),
                                      lo + diff * frac)
        return cls(count=int(arr.size), mean=float(arr.mean()),
                   p1=float(p1), p50=float(p50), p99=float(p99),
                   minimum=float(arr[0]), maximum=float(arr[-1]),
                   p999=float(p999))

    @property
    def mean_us(self) -> float:
        return self.mean / 1000.0


class LatencyRecorder:
    """One latency distribution: its samples in record order, in one
    flat float64 array (8 B a sample, exact by construction)."""

    def __init__(self) -> None:
        #: Per-op hot loops append here directly, skipping
        #: :meth:`record`'s check.
        self.samples = array("d")

    def record(self, latency_ns: float) -> None:
        if latency_ns < 0:
            raise ValueError("negative latency")
        self.samples.append(latency_ns)

    def merge(self, other: "LatencyRecorder") -> None:
        """Append *other*'s samples after this recorder's own."""
        self.samples.extend(other.samples)

    def __len__(self) -> int:
        return len(self.samples)

    def summary(self) -> LatencySummary:
        """Empty-safe: a zero-op run yields :meth:`LatencySummary.empty`."""
        if not self.samples:
            return LatencySummary.empty()
        return LatencySummary.from_samples(self.samples)


def throughput_kops(ops: int, elapsed_ns: float) -> float:
    """Thousands of operations per second of simulated time."""
    if elapsed_ns <= 0:
        raise ValueError("elapsed time must be positive")
    return ops / elapsed_ns * 1e6


def reduction_pct(baseline: float, improved: float) -> float:
    """Percentage reduction of *improved* relative to *baseline*."""
    if baseline == 0:
        return 0.0
    return (1.0 - improved / baseline) * 100.0
