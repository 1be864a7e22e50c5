"""Deterministic random-number helpers shared by workload generators."""

from __future__ import annotations

import numpy as np


def make_rng(seed: int, stream: str = "") -> np.random.Generator:
    """A reproducible generator, optionally namespaced by *stream*.

    Distinct streams derived from the same seed are statistically
    independent, so e.g. key and value-size generation do not correlate.
    """
    if stream:
        seq = np.random.SeedSequence([seed, _stream_id(stream)])
    else:
        seq = np.random.SeedSequence(seed)
    return np.random.default_rng(seq)


def _stream_id(stream: str) -> int:
    """Stable 63-bit id for a stream name (FNV-1a)."""
    h = 0xCBF29CE484222325
    for byte in stream.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h & 0x7FFFFFFFFFFFFFFF


def random_bytes(rng: np.random.Generator, n: int) -> bytes:
    """*n* random bytes from *rng*."""
    if n == 0:
        return b""
    return rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
