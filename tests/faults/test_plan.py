"""FaultPlan/FaultInjector semantics: determinism, stream independence,
schedules, limits, and breaker state machine."""

import pytest

from repro.core.inline_command import MAX_INLINE_BYTES
from repro.faults import (
    ALL_KINDS,
    CORRUPT_CHUNK,
    CORRUPT_INLINE_LENGTH,
    DROP_CQE,
    DROP_DOORBELL,
    FaultInjector,
    FaultPlan,
    fault_event,
)
from repro.host.breaker import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    BreakerConfig,
    CircuitBreaker,
)
from repro.pcie.traffic import TrafficCounter


def _decisions(injector, kind, n=200):
    return [injector.fire(kind) for _ in range(n)]


class TestPlanValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(rates={"bogus": 0.1})
        with pytest.raises(ValueError):
            FaultPlan(schedule={"nope": [1]})

    def test_rate_range_enforced(self):
        with pytest.raises(ValueError):
            FaultPlan(rates={DROP_CQE: 1.5})

    def test_active_flag(self):
        assert not FaultPlan().active
        assert FaultPlan(rates={DROP_CQE: 0.1}).active
        assert FaultPlan.scheduled({DROP_CQE: [3]}).active

    def test_uniform_covers_kinds(self):
        plan = FaultPlan.uniform(0.2)
        assert set(plan.rates) == set(ALL_KINDS)
        assert all(r == 0.2 for r in plan.rates.values())


class TestInjectorDeterminism:
    def test_same_plan_same_decisions(self):
        plan = FaultPlan.uniform(0.3, seed=1234)
        a = _decisions(FaultInjector(plan), CORRUPT_CHUNK)
        b = _decisions(FaultInjector(plan), CORRUPT_CHUNK)
        assert a == b
        assert any(a) and not all(a)

    def test_reset_replays_identically(self):
        plan = FaultPlan.uniform(0.3, seed=77)
        inj = FaultInjector(plan)
        first = _decisions(inj, DROP_CQE)
        inj.reset()
        assert _decisions(inj, DROP_CQE) == first

    def test_kind_streams_independent(self):
        """Arming another kind must not perturb this kind's decisions."""
        alone = FaultInjector(FaultPlan(seed=5, rates={CORRUPT_CHUNK: 0.25}))
        paired = FaultInjector(FaultPlan(
            seed=5, rates={CORRUPT_CHUNK: 0.25, DROP_DOORBELL: 0.9}))
        seq_alone = _decisions(alone, CORRUPT_CHUNK)
        # Interleave heavy draws on the other kind between every fire.
        seq_paired = []
        for _ in range(200):
            paired.fire(DROP_DOORBELL)
            seq_paired.append(paired.fire(CORRUPT_CHUNK))
        assert seq_alone == seq_paired

    def test_different_seeds_differ(self):
        a = _decisions(FaultInjector(FaultPlan.uniform(0.3, seed=1)),
                       CORRUPT_CHUNK)
        b = _decisions(FaultInjector(FaultPlan.uniform(0.3, seed=2)),
                       CORRUPT_CHUNK)
        assert a != b


class TestScheduleAndLimits:
    def test_schedule_fires_exactly_at_indices(self):
        inj = FaultInjector(FaultPlan.scheduled({DROP_CQE: [0, 3, 7]}))
        hits = [i for i, d in enumerate(_decisions(inj, DROP_CQE, 10)) if d]
        assert hits == [0, 3, 7]

    def test_limit_caps_injections(self):
        inj = FaultInjector(FaultPlan(rates={DROP_CQE: 1.0},
                                      limits={DROP_CQE: 3}))
        assert sum(_decisions(inj, DROP_CQE, 50)) == 3

    def test_opportunity_counters(self):
        inj = FaultInjector(FaultPlan.scheduled({DROP_CQE: [1]}))
        _decisions(inj, DROP_CQE, 5)
        assert inj.opportunities[DROP_CQE] == 5
        assert inj.injected[DROP_CQE] == 1

    def test_injections_recorded_as_events(self):
        counter = TrafficCounter()
        inj = FaultInjector(FaultPlan.scheduled({DROP_CQE: [0, 2]}),
                            counter=counter)
        _decisions(inj, DROP_CQE, 4)
        assert counter.event_count(fault_event(DROP_CQE)) == 2


class TestInactiveInjector:
    def test_null_plan_never_fires(self):
        inj = FaultInjector()
        assert inj.plan is None
        assert not any(_decisions(inj, CORRUPT_CHUNK, 50))

    def test_empty_plan_never_fires(self):
        inj = FaultInjector(FaultPlan())
        assert inj.plan is None
        assert not any(_decisions(inj, CORRUPT_CHUNK, 50))


class TestCorruptLength:
    def test_garbled_value_is_detectable(self):
        """The corrupted length must exceed the valid inline range so the
        decode check detects it (never silent mis-fetch)."""
        inj = FaultInjector(FaultPlan(rates={CORRUPT_INLINE_LENGTH: 1.0}))
        for value in (0, 64, 300, MAX_INLINE_BYTES):
            got = inj.corrupt_length(value)
            assert got != value
            assert got > MAX_INLINE_BYTES
            assert got <= 0xFFFFFFFF


class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        br = CircuitBreaker(BreakerConfig(threshold=3, cooldown_ops=4))
        for _ in range(2):
            br.record_failure()
        assert br.state == STATE_CLOSED
        br.record_failure()
        assert br.state == STATE_OPEN and br.trips == 1

    def test_success_resets_consecutive_count(self):
        br = CircuitBreaker(BreakerConfig(threshold=2, cooldown_ops=4))
        br.record_failure()
        br.record_success()
        br.record_failure()
        assert br.state == STATE_CLOSED  # never two in a row

    def test_cooldown_then_half_open_probe(self):
        br = CircuitBreaker(BreakerConfig(threshold=1, cooldown_ops=3))
        br.record_failure()
        assert br.state == STATE_OPEN
        for _ in range(3):
            assert not br.allow_inline()  # fallback ops burn the cooldown
        assert br.state == STATE_HALF_OPEN
        assert br.allow_inline()  # the probe
        assert br.probes == 1

    def test_probe_success_closes(self):
        br = CircuitBreaker(BreakerConfig(threshold=1, cooldown_ops=1))
        br.record_failure()
        br.allow_inline()
        assert br.state == STATE_HALF_OPEN
        br.allow_inline()
        br.record_success()
        assert br.state == STATE_CLOSED

    def test_probe_failure_reopens(self):
        br = CircuitBreaker(BreakerConfig(threshold=1, cooldown_ops=1))
        br.record_failure()
        br.allow_inline()
        br.allow_inline()  # the probe
        br.record_failure()
        assert br.state == STATE_OPEN and br.trips == 2

    def test_config_validated(self):
        with pytest.raises(ValueError):
            BreakerConfig(threshold=0)
        with pytest.raises(ValueError):
            BreakerConfig(cooldown_ops=0)
