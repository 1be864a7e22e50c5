"""Closed-loop serving workload: determinism, read-your-writes
verification, and report shape (ISSUE 8)."""

import math

import pytest

from repro.testbed import make_kv_testbed
from repro.workloads import (
    ServingConsistencyError,
    run_serving,
    session_key,
    session_ops,
)


def _serve(sessions=8, ops=6, **service_kwargs):
    tb = make_kv_testbed()
    service = tb.make_service(qd=8, **service_kwargs)
    return tb, service, run_serving(service, sessions=sessions,
                                    ops_per_session=ops,
                                    keys_per_session=4, seed=7)


# ----------------------------------------------------------------------
# op streams
# ----------------------------------------------------------------------

def test_session_ops_deterministic():
    a = session_ops(3, 20, 0.9, 8, seed=42)
    b = session_ops(3, 20, 0.9, 8, seed=42)
    assert [(o.op, o.key, o.value) for o in a] == \
        [(o.op, o.key, o.value) for o in b]


def test_session_ops_differ_across_sessions_and_seeds():
    a = session_ops(0, 20, 0.5, 8, seed=42)
    b = session_ops(1, 20, 0.5, 8, seed=42)
    c = session_ops(0, 20, 0.5, 8, seed=43)
    tapes = [[(o.op, o.value) for o in t] for t in (a, b, c)]
    assert tapes[0] != tapes[1] and tapes[0] != tapes[2]


def test_session_keys_are_private():
    assert session_key(1, 2) != session_key(2, 1)
    assert len(session_key(7, 3)) == 13


def test_key_skew_concentrates_on_hot_keys():
    """``key = floor(K * u ** 2)`` lands below ``h`` when
    ``u < sqrt(h / K)``: 50 % of draws on the hottest quarter, 70.7 %
    on the hottest half.  The 400-op sample must sit within 4 binomial
    standard deviations of each share."""
    n = 400
    ops = session_ops(0, n, 0.0, 100, seed=1, key_skew=2.0)
    for hot_keys in (25, 50):
        hot = sum(1 for o in ops if o.key < session_key(0, hot_keys))
        share = math.sqrt(hot_keys / 100)
        sigma = math.sqrt(n * share * (1 - share))
        assert abs(hot - n * share) <= 4 * sigma, (hot_keys, hot)


def test_session_ops_rejects_bad_parameters():
    with pytest.raises(ValueError):
        session_ops(0, 0, 0.5, 8, seed=1)
    with pytest.raises(ValueError):
        session_ops(0, 10, 1.5, 8, seed=1)
    with pytest.raises(ValueError):
        session_ops(0, 10, 0.5, 8, seed=1, key_skew=0.5)


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------

def test_serving_run_completes_all_ops():
    _tb, service, report = _serve(sessions=8, ops=6)
    assert report.ok + report.not_found == 8 * 6
    assert report.errors == 0
    assert report.served_kiops > 0
    assert report.rw_checks > 0
    assert len(report.per_session) == 8
    assert service.session_count == 0  # all sessions closed


def test_serving_run_is_deterministic():
    reports = [_serve(sessions=4, ops=8)[2] for _ in range(2)]
    assert reports[0].elapsed_ns == reports[1].elapsed_ns
    assert reports[0].ok == reports[1].ok
    assert reports[0].worst_p999_us == reports[1].worst_p999_us


def test_serving_with_batching_and_cache():
    _tb, service, report = _serve(sessions=8, ops=8,
                                  batch_window_ns=4000.0,
                                  cache_entries=256)
    assert report.errors == 0
    assert service.stats.batches > 0
    assert service.cache_stats.hits > 0


def test_worst_client_tail_dominates_aggregate():
    _tb, _service, report = _serve(sessions=8, ops=8)
    assert report.worst_p999_us * 1000 >= report.latency.p50


def test_rw_verification_catches_a_lying_store():
    """Force a stale read by poisoning the cache mid-run: the harness's
    read-your-writes check must throw, proving it actually bites."""
    tb = make_kv_testbed()
    tb.unmonitor()  # the protocol monitor would (rightly) fire first
    service = tb.make_service(qd=8, cache_entries=256)

    original_probe = service.cache.probe

    def lying_probe(key):
        value, token = original_probe(key)
        return (b"stale-garbage" if value is not None else None), token

    service.cache.probe = lying_probe
    with pytest.raises(ServingConsistencyError):
        run_serving(service, sessions=4, ops_per_session=12,
                    keys_per_session=2, read_ratio=0.9, seed=3)


def test_bad_run_parameters_rejected():
    tb = make_kv_testbed()
    service = tb.make_service(qd=8)
    with pytest.raises(ValueError):
        run_serving(service, sessions=0, ops_per_session=4)
    with pytest.raises(ValueError):
        run_serving(service, sessions=2, ops_per_session=4, fan_in=0)


def test_fan_in_above_one_disables_verification():
    tb = make_kv_testbed()
    service = tb.make_service(qd=8)
    report = run_serving(service, sessions=4, ops_per_session=6,
                         keys_per_session=4, fan_in=4, seed=9)
    assert report.rw_checks == 0
    assert report.errors == 0
