"""Unit tests for the KV serving front-end (sessions, group commit,
read cache, ordered scan)."""

import tracemalloc

import pytest

from repro.kvssd.service import (
    FAILED,
    FROM_CACHE,
    FROM_DEVICE,
    NOT_FOUND,
    OK,
    KvFuture,
    KvService,
    ServiceError,
)
from repro.testbed import make_kv_testbed


def _service(qd=8, **kwargs):
    tb = make_kv_testbed()
    return tb, tb.make_service(qd=qd, **kwargs)


def _run(service, future):
    stall = 0
    while not future.done:
        if service.poll() == 0:
            stall += 1
            assert stall < 200, "service made no progress"
    return future


# ----------------------------------------------------------------------
# sessions
# ----------------------------------------------------------------------

def test_session_ids_are_unique_and_closable():
    _tb, service = _service()
    a, b = service.open_session(), service.open_session()
    assert a.session_id != b.session_id
    assert service.session_count == 2
    a.close()
    assert service.session_count == 1
    with pytest.raises(ServiceError):
        a.put(b"k", b"v")


def test_basic_put_get_delete_roundtrip():
    _tb, service = _service()
    s = service.open_session()
    _run(service, s.put(b"key", b"value"))
    got = _run(service, s.get(b"key"))
    assert got.ok and got.result() == b"value"
    assert got.served_from == FROM_DEVICE
    _run(service, s.delete(b"key"))
    assert _run(service, s.get(b"key")).not_found


def test_bad_keys_rejected():
    _tb, service = _service()
    s = service.open_session()
    with pytest.raises(ServiceError):
        s.put(b"", b"v")
    with pytest.raises(ServiceError):
        s.get(b"x" * 17)


def test_bad_service_parameters_rejected():
    tb = make_kv_testbed()
    with pytest.raises(ServiceError):
        tb.make_service(batch_window_ns=-1.0)
    with pytest.raises(ServiceError):
        tb.make_service(batch_max_pairs=0)


# ----------------------------------------------------------------------
# group commit
# ----------------------------------------------------------------------

def test_group_commit_coalesces_puts():
    _tb, service = _service(batch_window_ns=10_000.0, batch_max_pairs=32)
    s = service.open_session()
    futures = [s.put(b"k%d" % i, b"v%d" % i) for i in range(8)]
    service.drain()
    assert all(f.ok for f in futures)
    assert service.stats.batches == 1
    assert service.stats.batched_pairs == 8
    for i in range(8):
        assert _run(service, s.get(b"k%d" % i)).result() == b"v%d" % i


def test_batch_closes_at_max_pairs():
    _tb, service = _service(batch_window_ns=1e9, batch_max_pairs=4)
    s = service.open_session()
    futures = [s.put(b"k%d" % i, b"v") for i in range(4)]
    # Size-triggered flush: committed without an explicit flush or any
    # deadline expiry (the window is effectively infinite).
    service.drain()
    assert all(f.ok for f in futures)
    assert service.stats.flush_size == 1
    assert service.stats.flush_deadline == 0


def test_deadline_flush_advances_idle_clock():
    _tb, service = _service(batch_window_ns=5_000.0)
    s = service.open_session()
    future = s.put(b"k", b"v")
    _run(service, future)  # poll() must sleep the clock to the deadline
    assert future.ok
    assert service.stats.flush_deadline >= 1


def test_read_barrier_flushes_pending_write():
    """A GET for a key sitting in the open batch must observe the write
    (read-your-writes), which forces the window closed."""
    _tb, service = _service(batch_window_ns=1e9, batch_max_pairs=64)
    s = service.open_session()
    put = s.put(b"key", b"new")
    get = s.get(b"key")
    _run(service, get)
    assert put.ok
    assert get.result() == b"new"
    assert service.stats.flush_barrier == 1
    assert service.stats.deferred_ops == 1


def test_delete_barrier_orders_after_pending_write():
    """A DELETE must land after the batched write it shadows, or the
    commit would resurrect the value."""
    _tb, service = _service(batch_window_ns=1e9, batch_max_pairs=64)
    s = service.open_session()
    s.put(b"key", b"doomed")
    delete = s.delete(b"key")
    _run(service, delete)
    assert delete.ok
    assert _run(service, s.get(b"key")).not_found


def test_per_op_futures_resolve_individually():
    _tb, service = _service(batch_window_ns=2_000.0, batch_max_pairs=8)
    s = service.open_session()
    f1 = s.put(b"a", b"1")
    f2 = s.put(b"b", b"2")
    service.drain()
    assert f1.ok and f2.ok
    assert f1.latency_ns >= 0 and f2.latency_ns >= 0


def test_poll_counts_every_future_a_commit_resolves():
    """poll() and drain() count serving futures, not device commands:
    the poll that commits one 28-pair batch resolves 28 PUTs."""
    _tb, service = _service(batch_window_ns=5_000.0, batch_max_pairs=32)
    s = service.open_session()
    futures = [s.put(b"k%d" % i, b"v") for i in range(28)]
    assert service.poll() == 28  # sleeps to the deadline, then commits
    assert service.stats.batches == 1
    assert all(f.ok for f in futures)
    gets = [s.get(b"k%d" % i) for i in range(5)]
    assert service.drain() == 5
    assert all(g.result() == b"v" for g in gets)


# ----------------------------------------------------------------------
# device futures resolve in the engine round that reaps them
# ----------------------------------------------------------------------

def test_get_burst_resolves_while_it_is_submitted():
    """A burst of GETs submitted without one poll resolves under the
    engine's backpressure rounds: after the loop no more than the
    engine's queues x QD are pending, and the service holds no parked
    engine future, CQE or data copy per GET.  The bound counts the
    caller's own futures and values (~345 B per GET); a service that
    keeps every resolved GET until its next poll peaks at ~950 B."""
    gets = 2048
    _tb, service = _service()
    s = service.open_session()
    keys = [b"key%06d" % i for i in range(gets)]
    for key in keys:
        s.put(key, b"v" * 64)
    service.drain()
    tracemalloc.start()
    try:
        futures = [s.get(key) for key in keys]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    engine = service.engine
    pending = sum(not f.done for f in futures)
    assert pending <= len(engine.qids) * engine.qd
    assert peak / gets < 600, f"{peak / gets:.0f} B per GET"
    assert service.drain() == pending
    assert all(f.result() == b"v" * 64 for f in futures)


def test_commit_callback_submits_its_followers_under_backpressure():
    """64 GETs wait on one PUT's group commit; its callback submits them
    all on a 1-queue QD-2 engine, where every submission past the second
    polls under backpressure from inside the callback drain.  The nested
    rounds only queue their callbacks, so nothing recurses and every GET
    reads the PUT's value."""
    _tb, service = _service(batch_window_ns=1e9, queues=1, qd=2)
    s = service.open_session()
    put = s.put(b"key", b"value")
    gets = [s.get(b"key") for _ in range(64)]
    service.drain()
    assert put.ok
    assert [g.result() for g in gets] == [b"value"] * 64
    assert all(g.served_from == FROM_DEVICE for g in gets)
    assert service.stats.deferred_ops == 64
    assert service.engine.stats.backpressure_waits > 0


# ----------------------------------------------------------------------
# read cache through the service
# ----------------------------------------------------------------------

def test_second_get_hits_cache_with_zero_time():
    _tb, service = _service(cache_entries=64)
    s = service.open_session()
    _run(service, s.put(b"k", b"v"))
    first = _run(service, s.get(b"k"))
    assert first.served_from == FROM_DEVICE
    second = s.get(b"k")
    assert second.done  # cache hits resolve synchronously
    assert second.served_from == FROM_CACHE
    assert second.latency_ns == 0.0
    assert second.result() == b"v"
    assert service.cache_stats.hits == 1


def test_put_invalidates_before_ack():
    _tb, service = _service(cache_entries=64)
    s = service.open_session()
    _run(service, s.put(b"k", b"old"))
    _run(service, s.get(b"k"))  # fill
    assert service.cache.peek(b"k") == b"old"
    _run(service, s.put(b"k", b"new"))
    got = _run(service, s.get(b"k"))
    assert got.result() == b"new"


def test_delete_invalidates_cache():
    _tb, service = _service(cache_entries=64)
    s = service.open_session()
    _run(service, s.put(b"k", b"v"))
    _run(service, s.get(b"k"))
    _run(service, s.delete(b"k"))
    assert service.cache.peek(b"k") is None
    assert _run(service, s.get(b"k")).not_found


def test_get_fill_raced_by_a_put_is_discarded():
    """A GET misses and reads through; a PUT to its key is submitted
    before the GET's CQE is reaped.  The GET returns what the device
    read, but its fill (token taken at the miss) must not install it."""
    _tb, service = _service(cache_entries=64)
    s = service.open_session()
    _run(service, s.put(b"k", b"old"))
    get = s.get(b"k")
    put = s.put(b"k", b"new")
    service.drain()
    assert get.result() == b"old" and put.ok
    assert service.cache_stats.fill_races == 1
    assert service.cache.peek(b"k") is None
    assert _run(service, s.get(b"k")).result() == b"new"


def test_batch_commit_reinvalidates_members():
    _tb, service = _service(batch_window_ns=5_000.0, cache_entries=64)
    s = service.open_session()
    _run(service, s.put(b"k", b"one"))
    _run(service, s.get(b"k"))
    put = s.put(b"k", b"two")
    _run(service, put)
    assert service.cache.peek(b"k") is None  # no stale survivor
    assert _run(service, s.get(b"k")).result() == b"two"


def test_disabled_cache_never_consulted():
    _tb, service = _service(cache_entries=0)
    assert service.cache is None
    s = service.open_session()
    _run(service, s.put(b"k", b"v"))
    _run(service, s.get(b"k"))
    _run(service, s.get(b"k"))
    assert service.cache_stats.lookups == 0


def test_traffic_identical_with_and_without_cache_on_writes():
    """The cache must be strictly zero-cost for PUT-only workloads."""
    results = []
    for entries in (0, 64):
        tb, service = _service(cache_entries=entries)
        s = service.open_session()
        for i in range(8):
            _run(service, s.put(b"k%d" % i, b"v"))
        results.append((tb.traffic.tlp_breakdown(),
                        tb.traffic.breakdown(), tb.clock.now))
    assert results[0] == results[1]


# ----------------------------------------------------------------------
# ordered scan
# ----------------------------------------------------------------------

def test_scan_yields_sorted_range():
    _tb, service = _service()
    s = service.open_session()
    for i in range(10):
        s.put(b"key%02d" % i, b"val%d" % i)
    got = list(s.scan(b"key03", b"key08", page_size=3))
    assert [k for k, _v in got] == [b"key%02d" % i for i in range(3, 8)]
    assert got[0][1] == b"val3"


def test_scan_sees_prior_writes_through_drain():
    _tb, service = _service(batch_window_ns=1e9, batch_max_pairs=64)
    s = service.open_session()
    s.put(b"scan-a", b"1")  # parked in the open batch
    got = dict(s.scan(b"scan-a", b"scan-z"))
    assert got == {b"scan-a": b"1"}


def test_scan_reads_through_cache():
    _tb, service = _service(cache_entries=64)
    s = service.open_session()
    for i in range(4):
        _run(service, s.put(b"s%d" % i, b"v%d" % i))
        _run(service, s.get(b"s%d" % i))  # warm the cache
    hits_before = service.cache_stats.hits
    got = list(s.scan(b"s0"))
    assert len(got) == 4
    assert service.cache_stats.hits == hits_before + 4


def test_scan_skips_deleted_keys():
    _tb, service = _service()
    s = service.open_session()
    for i in range(4):
        s.put(b"d%d" % i, b"v")
    _run(service, s.delete(b"d2"))
    keys = [k for k, _v in s.scan(b"d0", b"d9")]
    assert keys == [b"d0", b"d1", b"d3"]


def test_scan_empty_range():
    _tb, service = _service()
    s = service.open_session()
    _run(service, s.put(b"a", b"v"))
    assert list(s.scan(b"x", b"z")) == []


def test_scan_rejects_bad_page_size():
    _tb, service = _service()
    with pytest.raises(ServiceError):
        service.scan(b"a", page_size=0)


# ----------------------------------------------------------------------
# future contract
# ----------------------------------------------------------------------

def test_future_result_raises_while_pending():
    _tb, service = _service(batch_window_ns=1e9)
    s = service.open_session()
    future = s.put(b"k", b"v")
    with pytest.raises(ServiceError):
        future.result()
    service.drain()
    future.result()  # resolved: no raise


def test_not_found_result_raises_keyerror():
    _tb, service = _service()
    s = service.open_session()
    got = _run(service, s.get(b"absent"))
    with pytest.raises(KeyError):
        got.result()


def test_future_done_and_ok_flip_once():
    """``done`` and ``ok`` are attributes set by the one resolution; a
    second resolution raises and changes nothing."""
    future = KvFuture("get", b"k", 10.0)
    assert (future.done, future.ok) == (False, False)
    future._resolve(OK, 15.0, value=b"v", served_from=FROM_CACHE)
    assert (future.done, future.ok, future.latency_ns) == (True, True, 5.0)
    with pytest.raises(ServiceError):
        future._resolve(FAILED, 20.0, status=0x80)
    assert (future.state, future.done, future.ok) == (OK, True, True)
    assert future.result() == b"v"
    for state in (FAILED, NOT_FOUND):
        other = KvFuture("get", b"k", 0.0)
        other._resolve(state, 1.0, status=0x80)
        assert other.done and not other.ok
        assert other.not_found == (state == NOT_FOUND)
