"""Threshold-based hybrid transfer policy (paper §4.2, overhead analysis).

ByteExpress's per-chunk cost makes it slower than PRP beyond roughly 256
bytes on the paper's testbed.  The paper proposes the obvious remedy —
switch on payload size, as BandSlim does: inline below a threshold, PRP
above it.  Because ByteExpress changes nothing in the core NVMe
architecture, the two paths coexist without coordination.

The policy object is deliberately tiny; the ablation benchmark sweeps the
threshold to find the empirical crossover and check it sits near 256 B.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datapath import names as dp_names

#: Paper-suggested default switching point.
DEFAULT_THRESHOLD = 256


@dataclass(frozen=True)
class HybridPolicy:
    """Choose a transfer method from the payload size."""

    threshold: int = DEFAULT_THRESHOLD

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ValueError("threshold must be non-negative")

    def choose(self, payload_len: int) -> str:
        """``byteexpress`` at or below the threshold, ``prp`` above it.

        A zero-length payload has nothing to inline, so it takes the PRP
        path (matching the driver, which rejects empty inline submits).
        """
        if payload_len <= 0:
            return dp_names.PRP
        return (dp_names.BYTEEXPRESS if payload_len <= self.threshold
                else dp_names.PRP)
