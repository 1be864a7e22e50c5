"""Unit tests for the sharded invalidating read cache."""

import pytest

from repro.kvssd.cache import ShardedReadCache


def _fill(cache, key, value):
    """Miss on *key*, then install *value* with the miss's token."""
    return cache.commit_fill(cache.probe(key)[1], value)


def test_lookup_miss_then_fill_then_hit():
    cache = ShardedReadCache(capacity=16, shards=4)
    value, token = cache.probe(b"k")
    assert value is None
    assert cache.commit_fill(token, b"v")
    assert cache.probe(b"k")[0] == b"v"
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.fills == 1


def test_invalidate_drops_entry_and_counts():
    cache = ShardedReadCache(capacity=16)
    _fill(cache, b"k", b"v")
    assert cache.invalidate(b"k")
    assert cache.probe(b"k")[0] is None
    assert cache.stats.invalidations == 1
    # Invalidating an absent key is not an "invalidation" event.
    assert not cache.invalidate(b"absent")
    assert cache.stats.invalidations == 1


def test_fill_race_discarded():
    """A fill begun before an invalidation must not install — the
    classic look-aside bug where a slow read resurrects a stale value."""
    cache = ShardedReadCache(capacity=16)
    _value, token = cache.probe(b"k")
    cache.invalidate(b"k")  # a write landed mid-read-through
    assert not cache.commit_fill(token, b"stale")
    assert cache.peek(b"k") is None
    assert cache.stats.fill_races == 1
    # A fill started *after* the invalidation installs fine.
    _value, token = cache.probe(b"k")
    assert cache.commit_fill(token, b"fresh")
    assert cache.peek(b"k") == b"fresh"


def test_neighbour_key_writes_do_not_fence_a_fill():
    """Fences are per key, not per shard: a busy neighbour must not
    discard every concurrent fill that happens to share its shard."""
    cache = ShardedReadCache(capacity=64, shards=1)  # force sharing
    _value, token = cache.probe(b"cold")
    for i in range(10):
        cache.invalidate(b"hot")
    assert cache.commit_fill(token, b"v")
    assert cache.peek(b"cold") == b"v"
    assert cache.stats.fill_races == 0


def test_clear_fences_all_in_flight_fills():
    cache = ShardedReadCache(capacity=16)
    _value, token = cache.probe(b"k")
    cache.clear()
    assert not cache.commit_fill(token, b"stale")
    assert len(cache) == 0


def test_lru_eviction_per_shard():
    cache = ShardedReadCache(capacity=4, shards=1)
    for i in range(6):
        key = b"k%d" % i
        _fill(cache, key, b"v")
    assert len(cache) == 4
    assert cache.stats.evictions == 2
    # Oldest two fell out.
    assert cache.peek(b"k0") is None
    assert cache.peek(b"k1") is None
    assert cache.peek(b"k5") == b"v"


def test_lookup_refreshes_recency():
    cache = ShardedReadCache(capacity=2, shards=1)
    _fill(cache, b"a", b"1")
    _fill(cache, b"b", b"2")
    assert cache.probe(b"a")[0] == b"1"  # refresh a
    _fill(cache, b"c", b"3")  # evicts b
    assert cache.peek(b"a") == b"1"
    assert cache.peek(b"b") is None


def test_shard_placement_is_deterministic():
    a = ShardedReadCache(capacity=64, shards=8)
    b = ShardedReadCache(capacity=64, shards=8)
    for i in range(32):
        k = b"key-%d" % i
        assert (a._shards.index(a._shard_for(k))
                == b._shards.index(b._shard_for(k)))


def test_capacity_smaller_than_shards():
    cache = ShardedReadCache(capacity=2, shards=8)
    assert cache.num_shards == 2
    assert cache.per_shard == 1


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        ShardedReadCache(capacity=-1)
    with pytest.raises(ValueError):
        ShardedReadCache(capacity=8, shards=0)


def test_hit_rate():
    cache = ShardedReadCache(capacity=8)
    assert cache.stats.hit_rate == 0.0
    _fill(cache, b"k", b"v")  # one miss
    cache.probe(b"k")  # one hit
    assert cache.stats.hit_rate == 0.5
    assert cache.stats.as_dict()["hit_rate"] == 0.5


# ----------------------------------------------------------------------
# probe: one hash per GET, and its miss token is a fill token
# ----------------------------------------------------------------------

def test_probe_hit_and_miss_shapes():
    cache = ShardedReadCache(capacity=16, shards=4)
    value, token = cache.probe(b"k")
    assert value is None and token is not None
    assert cache.commit_fill(token, b"v")
    assert cache.probe(b"k") == (b"v", None)
    stats = cache.stats
    assert (stats.hits, stats.misses, stats.fills) == (1, 1, 1)


def test_token_carries_the_keys_shard():
    cache = ShardedReadCache(capacity=64, shards=8)
    for i in range(16):
        key = b"key-%d" % i
        assert cache.probe(key)[1][0] is cache._shard_for(key)


def test_probe_miss_invalidated_before_its_fill_is_discarded():
    """A GET that missed, then saw its key written before its device
    read returned, must not install the value it read."""
    cache = ShardedReadCache(capacity=16)
    _value, token = cache.probe(b"k")
    cache.invalidate(b"k")
    assert not cache.commit_fill(token, b"stale")
    assert cache.peek(b"k") is None
    assert cache.stats.fill_races == 1


def test_clear_fences_probe_tokens_on_every_shard():
    cache = ShardedReadCache(capacity=64, shards=8)
    tokens = [cache.probe(b"key-%d" % i)[1] for i in range(32)]
    cache.clear()
    assert not any(cache.commit_fill(t, b"stale") for t in tokens)
    assert len(cache) == 0
    assert cache.stats.fill_races == 32
