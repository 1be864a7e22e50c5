"""MixGraph workload model (Figure 1(a), Figure 6(a)).

MixGraph is db_bench's benchmark reflecting Meta's production RocksDB
(ZippyDB) characteristics, from Cao et al., FAST '20: *value sizes follow a
Generalized Pareto Distribution* with location 0, scale 35.6612 and shape
0.078688, under which ~60 % of values are smaller than 32 bytes — the
property the paper's Figure 1(a) heatmap shows and Figure 6(a) exploits.

Key sizes in the same study are small and narrowly distributed; we use the
db_bench default of 16-byte keys, which also matches the 16-byte key field
of the NVMe KV command set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from repro.sim.rng import make_rng, random_bytes

#: Generalized Pareto parameters from Cao et al. (FAST '20), Table 3.
GPD_SCALE = 35.6612
GPD_SHAPE = 0.078688
#: db_bench MixGraph key size.
KEY_SIZE = 16
#: Values are clamped to the KV command set's practical bounds.
MIN_VALUE = 1
MAX_VALUE = 64 * 1024
#: Upper bin edges of the Figure 1(a) size histogram and heatmap.
HISTOGRAM_BINS = (16, 32, 64, 128, 256, 512, 1024, 4096)
HEATMAP_BINS = (16, 32, 64, 128, 256, 512, 1024)


def sample_value_sizes(n: int, seed: int = 0x5EED) -> np.ndarray:
    """Draw *n* value sizes from the MixGraph GPD (integer bytes ≥1)."""
    rng = make_rng(seed, "mixgraph.value_size")
    u = rng.random(n)
    # Inverse-CDF of the GPD with location 0:  x = σ/k ((1-u)^-k - 1)
    sizes = GPD_SCALE / GPD_SHAPE * ((1.0 - u) ** -GPD_SHAPE - 1.0)
    return np.clip(sizes.astype(np.int64) + MIN_VALUE, MIN_VALUE, MAX_VALUE)


def fraction_below(sizes: np.ndarray, threshold: int) -> float:
    """Share of values strictly below *threshold* bytes."""
    if len(sizes) == 0:
        return 0.0
    return float(np.mean(sizes < threshold))


def size_histogram(sizes: np.ndarray) -> List[Tuple[str, float]]:
    """Binned size distribution, Figure 1(a)-style."""
    out: List[Tuple[str, float]] = []
    low = 0
    for high in HISTOGRAM_BINS:
        frac = float(np.mean((sizes >= low) & (sizes < high)))
        out.append((f"[{low},{high})", frac))
        low = high
    out.append((f"[{low},inf)", float(np.mean(sizes >= low))))
    return out


#: Density glyphs for the heatmap, lightest to darkest.
_SHADES = " .:-=+*#%@"


def value_size_heatmap(sizes: np.ndarray, time_buckets: int = 40) -> str:
    """Figure 1(a)'s actual form: a value-size heatmap over time.

    Operations are bucketed into *time_buckets* equal windows of the
    stream (x axis) and into size bins (y axis); cell shade encodes the
    share of that window's operations falling in the size bin.  MixGraph
    is stationary, so the paper's figure (and this one) shows dense
    horizontal bands in the sub-32 B rows.
    """
    if len(sizes) < time_buckets:
        raise ValueError("need at least one op per time bucket")
    bins = HEATMAP_BINS
    edges = (0,) + bins
    labels = [f"[{lo},{hi})" for lo, hi in zip(edges, edges[1:])]
    labels.append(f"[{bins[-1]},inf)")
    windows = np.array_split(np.asarray(sizes), time_buckets)
    rows: List[str] = []
    grid: List[List[float]] = []
    for row_idx in range(len(labels)):
        lo = edges[row_idx] if row_idx < len(edges) else bins[-1]
        hi = edges[row_idx + 1] if row_idx + 1 < len(edges) else None
        cells = []
        for window in windows:
            if hi is None:
                frac = float(np.mean(window >= bins[-1]))
            else:
                frac = float(np.mean((window >= lo) & (window < hi)))
            cells.append(frac)
        grid.append(cells)
    peak = max(max(row) for row in grid) or 1.0
    for label, cells in zip(reversed(labels), reversed(grid)):
        shades = "".join(
            _SHADES[min(int(c / peak * (len(_SHADES) - 1)), len(_SHADES) - 1)]
            for c in cells)
        rows.append(f"{label:>12s} |{shades}|")
    rows.append(" " * 13 + "+" + "-" * time_buckets + "+")
    rows.append(" " * 14 + "operation stream (time) ->")
    return "\n".join(rows)


@dataclass
class KvOp:
    """One key-value operation."""

    op: str          # "put" | "get" | "delete"
    key: bytes
    value: bytes = b""


class MixGraphWorkload:
    """Generator of MixGraph-like PUT streams.

    The paper's Figure 6(a) runs 1 M PUTs with default settings; the
    generator is deterministic per seed so every transfer method sees the
    same byte-for-byte operation stream.
    """

    def __init__(self, ops: int, seed: int = 0x5EED,
                 key_space: int = 1_000_000) -> None:
        if ops <= 0:
            raise ValueError("ops must be positive")
        self.ops = ops
        self.seed = seed
        self.key_space = key_space

    def value_sizes(self) -> np.ndarray:
        return sample_value_sizes(self.ops, self.seed)

    def __iter__(self) -> Iterator[KvOp]:
        sizes = self.value_sizes()
        key_rng = make_rng(self.seed, "mixgraph.keys")
        data_rng = make_rng(self.seed, "mixgraph.values")
        key_ids = key_rng.integers(0, self.key_space, size=self.ops)
        for i in range(self.ops):
            key = int(key_ids[i]).to_bytes(8, "big").rjust(KEY_SIZE, b"k")
            value = random_bytes(data_rng, int(sizes[i]))
            yield KvOp("put", key, value)


class FillRandomWorkload:
    """db_bench FillRandom with fixed-size values (Figure 6(b): 128 B)."""

    def __init__(self, ops: int, value_size: int = 128,
                 seed: int = 0x5EED, key_space: int = 1_000_000) -> None:
        if ops <= 0:
            raise ValueError("ops must be positive")
        if value_size <= 0:
            raise ValueError("value_size must be positive")
        self.ops = ops
        self.value_size = value_size
        self.seed = seed
        self.key_space = key_space

    def __iter__(self) -> Iterator[KvOp]:
        key_rng = make_rng(self.seed, "fillrandom.keys")
        data_rng = make_rng(self.seed, "fillrandom.values")
        key_ids = key_rng.integers(0, self.key_space, size=self.ops)
        for i in range(self.ops):
            key = int(key_ids[i]).to_bytes(8, "big").rjust(KEY_SIZE, b"k")
            value = random_bytes(data_rng, self.value_size)
            yield KvOp("put", key, value)
