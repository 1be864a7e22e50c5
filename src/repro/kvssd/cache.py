"""Sharded invalidating read cache for the KV serving front-end.

The cache sits between the serving layer and the device: GET hits are
served from host memory with zero simulated-time cost and zero link
traffic, so the ablation's "cache" column measures exactly the traffic
the device never sees.  Coherence is invalidation-based — every PUT,
DELETE and batch commit drops the affected keys *before* the write is
acknowledged, so a later GET either hits a value at least as new as the
client's last acknowledged write, or misses and reads through.

Fills are versioned: a read-through records the key's version when it
starts (the miss of :meth:`probe`) and the fill is discarded if any
invalidation of that key, or a :meth:`clear`, landed in between
(:meth:`commit_fill`).
Without this, a slow device read racing a newer write would install the
stale value *after* the invalidation that was supposed to kill it —
the classic look-aside cache bug.  Discarded fills are counted as
``fill_races``.

Sharding is by key hash.  With a single global LRU, a scan or a hot
tenant evicts everyone; per-shard LRU bounds the blast radius the same
way per-shard locks bound contention in a threaded server (the
simulation is single-threaded, so sharding here models capacity
partitioning, not locking).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple
from zlib import crc32


@dataclass
class CacheStats:
    """Counters for one :class:`ShardedReadCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    fills: int = 0
    #: Read-through fills discarded because an invalidation landed on
    #: the shard between ``probe`` and ``commit_fill``.
    fill_races: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "fills": self.fills,
            "fill_races": self.fill_races,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class _Shard:
    """One LRU shard plus its invalidation fences."""

    entries: "OrderedDict[bytes, bytes]" = field(default_factory=OrderedDict)
    #: Per-key invalidation counters: a fill started before the bump of
    #: *its* key is stale and must not be installed.  Keyed (rather than
    #: one shard-wide counter) so a busy neighbour key's writes don't
    #: discard every concurrent fill on the shard.
    versions: Dict[bytes, int] = field(default_factory=dict)
    #: Shard-wide epoch, bumped only by :meth:`ShardedReadCache.clear`.
    epoch: int = 0


#: What a miss of :meth:`ShardedReadCache.probe` returns: the key's
#: shard, the key, and the key's version and the shard's epoch at the
#: start.
FillToken = Tuple[_Shard, bytes, int, int]


class ShardedReadCache:
    """Bounded, sharded, invalidation-coherent LRU of key → value.

    ``capacity`` is the total entry budget, split evenly across
    ``shards`` (each shard gets at least one slot).  ``capacity == 0``
    constructs a permanently-empty cache whose lookups always miss —
    the service still short-circuits that case entirely, so a disabled
    cache is never consulted at all.
    """

    def __init__(self, capacity: int, shards: int = 8) -> None:
        if capacity < 0:
            raise ValueError(f"negative cache capacity {capacity}")
        if shards <= 0:
            raise ValueError(f"shard count must be positive, got {shards}")
        self.capacity = capacity
        self.num_shards = min(shards, capacity) if capacity else shards
        self.per_shard = (capacity // self.num_shards) if capacity else 0
        self._shards: List[_Shard] = [_Shard() for _ in range(self.num_shards)]
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def _shard_for(self, key: bytes) -> _Shard:
        # crc32 rather than hash(): stable across runs (PYTHONHASHSEED),
        # so shard placement — and with it the eviction order — is
        # deterministic, as every reproduction artifact must be.
        return self._shards[crc32(key) % self.num_shards]

    # ------------------------------------------------------------------
    def probe(self, key: bytes) -> Tuple[Optional[bytes],
                                         Optional[FillToken]]:
        """One GET's look-aside step: ``(value, None)`` on a hit, which
        refreshes LRU recency, and ``(None, token)`` on a miss, whose
        token begins the key's read-through fill.  The token is
        ``(shard, key, version, epoch)``: it carries the key's shard, so
        :meth:`commit_fill` does not hash the key again."""
        shard = self._shards[crc32(key) % self.num_shards]
        value = shard.entries.get(key)
        if value is None:
            self.stats.misses += 1
            return None, (shard, key, shard.versions.get(key, 0),
                          shard.epoch)
        shard.entries.move_to_end(key)
        self.stats.hits += 1
        return value, None

    def peek(self, key: bytes) -> Optional[bytes]:
        """Lookup without touching recency or stats (tests, monitor)."""
        return self._shard_for(key).entries.get(key)

    # ------------------------------------------------------------------
    # versioned read-through fill
    # ------------------------------------------------------------------
    def commit_fill(self, token: FillToken, value: bytes) -> bool:
        """Install the read-through result unless *key* was invalidated
        (or the cache cleared) since its token was made.  Returns True
        if installed.
        """
        shard, key, version, epoch = token
        if self.per_shard == 0:
            return False
        if shard.versions.get(key, 0) != version or shard.epoch != epoch:
            self.stats.fill_races += 1
            return False
        entries = shard.entries
        if key in entries:
            entries.move_to_end(key)
        entries[key] = value
        self.stats.fills += 1
        # One insert grows the shard by at most one entry over its cap.
        if len(entries) > self.per_shard:
            entries.popitem(last=False)
            self.stats.evictions += 1
        return True

    # ------------------------------------------------------------------
    # coherence
    # ------------------------------------------------------------------
    def invalidate(self, key: bytes) -> bool:
        """Drop *key* and fence its in-flight fills."""
        shard = self._shards[crc32(key) % self.num_shards]
        shard.versions[key] = shard.versions.get(key, 0) + 1
        if shard.entries.pop(key, None) is not None:
            self.stats.invalidations += 1
            return True
        return False

    def clear(self) -> None:
        """Drop everything and fence all in-flight fills."""
        for shard in self._shards:
            shard.epoch += 1
            shard.versions.clear()
            shard.entries.clear()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(shard.entries) for shard in self._shards)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ShardedReadCache(capacity={self.capacity}, "
                f"shards={self.num_shards}, len={len(self)}, "
                f"hit_rate={self.stats.hit_rate:.2%})")
