"""Vectorized percentile parity with the scalar ``np.percentile`` path.

``LatencySummary.from_samples`` computes all four reported percentiles
in one vectorized pass; its contract is bit-for-bit agreement with the
pre-vectorization scalar definition, ``np.percentile(arr, rank)`` with
the default linear interpolation.  The subtle part is the quantile
constant: ``np.percentile`` divides the rank by 100 internally, and
``99.9 / 100`` is one ulp above the literal ``0.999`` — an index shift
that changes the p99.9 lerp on about half of all sample sets, worst at
small n where a single index ulp crosses a sample boundary.  These
tests pin the parity with hypothesis-generated sample sets across the
n < 100 and n < 1000 regimes the tail percentiles interpolate within.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import LatencyRecorder, LatencySummary

RANKS = (1.0, 50.0, 99.0, 99.9)

#: Latency-like magnitudes; finite, non-negative, spanning ns..seconds.
_sample = st.floats(min_value=0.0, max_value=1e12,
                    allow_nan=False, allow_infinity=False, width=64)


#: Whole-ns latencies (the engine cell's) and fractional ones (charged
#: under a lane scope, as in serving), mixed in one list.
_mixed = st.one_of(_sample,
                   st.integers(min_value=0, max_value=10**9).map(float))


def _scalar_reference(samples):
    """The pre-vectorization definition: one np.percentile call per rank."""
    arr = np.asarray(samples, dtype=np.float64)
    return tuple(float(np.percentile(arr, r)) for r in RANKS)


def _assert_parity(samples):
    s = LatencySummary.from_samples(samples)
    got = (s.p1, s.p50, s.p99, s.p999)
    ref = _scalar_reference(samples)
    # Bit-for-bit, not approx: both paths claim the same linear
    # interpolation over the same sorted data.
    assert got == ref, f"n={len(samples)}: {got} != {ref}"
    arr = np.asarray(samples, dtype=np.float64)
    assert s.minimum == float(arr.min())
    assert s.maximum == float(arr.max())
    assert s.count == arr.size


@given(st.lists(_sample, min_size=1, max_size=99))
@settings(max_examples=300)
def test_small_sample_parity_n_below_100(samples):
    """n < 100: every tail percentile interpolates between the last two
    samples, where the index-ulp bug bit hardest."""
    _assert_parity(samples)


@given(st.lists(_sample, min_size=100, max_size=999))
@settings(max_examples=60)
def test_mid_sample_parity_n_below_1000(samples):
    """100 <= n < 1000: p99 resolves to interior samples, p99.9 still
    interpolates inside the top two."""
    _assert_parity(samples)


@given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1,
                max_size=50).map(lambda xs: [float(x) for x in xs]))
@settings(max_examples=200)
def test_integer_valued_sample_parity(samples):
    """Integer-valued latencies make lerp rounding differences visible
    as clean decimal discrepancies."""
    _assert_parity(samples)


def test_two_sample_p999_regression():
    """Regression pin: with the quantile written as the literal 0.999
    instead of 99.9/100, this two-sample set produced 925.256 while
    np.percentile produces 925.2560000000001."""
    s = LatencySummary.from_samples([182.0, 926.0])
    assert s.p999 == float(np.percentile([182.0, 926.0], 99.9))
    assert s.p999 == 925.2560000000001


def test_single_sample_every_percentile_is_the_sample():
    s = LatencySummary.from_samples([123.0])
    assert (s.p1, s.p50, s.p99, s.p999) == (123.0,) * 4
    assert (s.minimum, s.maximum, s.mean) == (123.0, 123.0, 123.0)


@given(st.data())
@settings(max_examples=200)
def test_merged_recorders_summarise_like_from_samples(data):
    """Samples recorded across 1-4 recorders and merged in order give
    the summary of the whole list, field for field, or the empty
    summary when there are none."""
    samples = data.draw(st.lists(_mixed, max_size=200))
    cuts = sorted(data.draw(st.lists(
        st.integers(min_value=0, max_value=len(samples)), max_size=3)))
    bounds = [0] + cuts + [len(samples)]
    recorders = []
    for lo, hi in zip(bounds, bounds[1:]):
        rec = LatencyRecorder()
        for v in samples[lo:hi]:
            rec.record(v)
        recorders.append(rec)
    merged = recorders[0]
    for rec in recorders[1:]:
        merged.merge(rec)
    assert len(merged) == len(samples)
    expected = (LatencySummary.from_samples(samples) if samples
                else LatencySummary.empty())
    assert merged.summary() == expected
