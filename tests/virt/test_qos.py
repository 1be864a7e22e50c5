"""QoS primitives: token buckets, tenant budgets, the arbiter."""

import pytest

from repro.sim.clock import SimClock
from repro.virt import QosArbiter, QosParams, TenantBudget, TokenBucket


# ----------------------------------------------------------------------
# QosParams
# ----------------------------------------------------------------------
def test_params_defaults_are_unlimited():
    p = QosParams()
    assert p.weight == 1
    assert p.ops_per_sec is None
    assert p.bytes_per_sec is None


@pytest.mark.parametrize("kwargs", [
    {"weight": -1},
    {"ops_per_sec": 0.0},
    {"ops_per_sec": -5.0},
    {"bytes_per_sec": 0.0},
    {"burst_ops": 0},
    {"burst_bytes": 0},
])
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        QosParams(**kwargs)


# ----------------------------------------------------------------------
# TokenBucket
# ----------------------------------------------------------------------
def test_bucket_starts_full_and_refills_on_sim_time():
    b = TokenBucket(rate_per_sec=1e9, capacity=10)  # 1 token per ns
    assert b.tokens == 10.0
    b.charge(10)
    assert b.tokens == 0.0
    b.refill(4.0)
    assert b.tokens == pytest.approx(4.0)
    b.refill(1_000_000.0)  # clamped at capacity
    assert b.tokens == 10.0


def test_bucket_charge_clamps_at_zero():
    b = TokenBucket(rate_per_sec=1e6, capacity=4)
    b.charge(3)
    b.charge(3)  # would go negative; clamps
    assert b.tokens == 0.0


def test_bucket_unlimited_never_charges():
    b = TokenBucket(rate_per_sec=None, capacity=1)
    assert b.affordable(10**9, now_ns=0.0)
    b.charge(10**9)
    assert b.tokens == 1.0


def test_full_bucket_affords_oversized_cost():
    # A cost beyond the whole capacity must be allowed when the bucket
    # is full, or the command could never run (livelock escape).
    b = TokenBucket(rate_per_sec=100.0, capacity=8)
    assert b.affordable(64, now_ns=0.0)
    b.charge(64)
    assert b.tokens == 0.0  # clamped, not negative
    assert not b.affordable(1, now_ns=0.0)


def test_bucket_validation():
    with pytest.raises(ValueError):
        TokenBucket(rate_per_sec=1.0, capacity=0)
    with pytest.raises(ValueError):
        TokenBucket(rate_per_sec=0.0, capacity=4)


# ----------------------------------------------------------------------
# QosArbiter
# ----------------------------------------------------------------------
def _arbiter():
    return QosArbiter(SimClock())


def test_register_rejects_double_governance():
    arb = _arbiter()
    budget = TenantBudget("a", QosParams())
    arb.register(3, budget)
    with pytest.raises(ValueError):
        arb.register(3, budget)
    arb.unregister(3)
    arb.unregister(3)  # idempotent
    assert not arb.governs(3)


def test_grant_is_weight_when_unlimited():
    arb = _arbiter()
    arb.register(1, TenantBudget("a", QosParams(weight=4)))
    assert arb.grant(1) == 4
    assert arb.grants == 1


def test_grant_zero_weight_denied_and_unserviceable():
    arb = _arbiter()
    arb.register(1, TenantBudget("parked", QosParams(weight=0)))
    assert arb.grant(1) == 0
    assert arb.denied_weight == 1
    assert not arb.serviceable(1)
    assert arb.serviceable(2)  # ungoverned queues always serviceable


def test_grant_clamped_by_ops_bucket():
    arb = _arbiter()
    budget = TenantBudget("a", QosParams(weight=8, ops_per_sec=1e6,
                                         burst_ops=3))
    arb.register(1, budget)
    assert arb.grant(1) == 3  # bucket full at burst capacity
    arb.charge(1, 3, 0)
    assert arb.grant(1) == 0
    assert arb.denied_ops == 1


def test_ops_bucket_refills_on_clock():
    clock = SimClock()
    arb = QosArbiter(clock)
    budget = TenantBudget("a", QosParams(weight=8, ops_per_sec=1e6,
                                         burst_ops=4))
    arb.register(1, budget)
    arb.charge(1, 4, 0)
    assert arb.grant(1) == 0
    clock.advance(2_000.0)  # 2 us at 1e6 ops/s = 2 tokens
    assert arb.grant(1) == 2


def test_budget_shared_across_tenant_queues():
    arb = _arbiter()
    budget = TenantBudget("a", QosParams(weight=2, ops_per_sec=1e6,
                                         burst_ops=2))
    arb.register(1, budget)
    arb.register(2, budget)
    assert arb.grant(1) == 2
    arb.charge(1, 2, 0)
    # Queue 2 cannot dodge the tenant's rate limit.
    assert arb.grant(2) == 0


def test_allow_bytes_counts_denials():
    arb = _arbiter()
    arb.register(1, TenantBudget("a", QosParams(bytes_per_sec=1e6,
                                                burst_bytes=128)))
    assert arb.allow_bytes(1, 128)
    arb.charge(1, 0, 128)
    assert not arb.allow_bytes(1, 64)
    assert arb.denied_bytes == 1


def test_budgets_deduplicates_shared_budget():
    arb = _arbiter()
    budget = TenantBudget("a", QosParams())
    other = TenantBudget("b", QosParams())
    arb.register(1, budget)
    arb.register(2, budget)
    arb.register(3, other)
    assert len(arb.budgets()) == 2
