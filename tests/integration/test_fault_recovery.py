"""Fault-injection acceptance tests: detection, retry/backoff recovery,
circuit-breaker fallback, and end-to-end determinism under a fixed seed.

The three headline scenarios:

(a) a corrupted inline length field is *detected* and the command is
    completed with an error status — never mis-fetched as data;
(b) the driver retries with exponential backoff and succeeds within the
    per-command deadline;
(c) repeated inline faults trip the circuit breaker, so subsequent small
    writes fall back to the PRP baseline and still succeed.
"""

import pytest

from repro.faults import (
    CORRUPT_CHUNK,
    CORRUPT_INLINE_LENGTH,
    CORRUPT_TLP,
    DELAY_CQE,
    DROP_CQE,
    DROP_DOORBELL,
    FaultPlan,
    fault_event,
)
from repro.faults.plan import DELAY_CQE_NS
from repro.host.breaker import STATE_OPEN, BreakerConfig, CircuitBreaker
from repro.host.driver import CommandTimeoutError, RetryPolicy
from repro.nvme.constants import IoOpcode, StatusCode
from repro.nvme.passthrough import PassthruRequest
from repro.pcie.traffic import (
    CAT_DOORBELL,
    EVT_BREAKER_TRIP,
    EVT_INLINE_FALLBACK,
    EVT_RETRY,
    EVT_TIMEOUT,
    EVT_TLP_REPLAY,
)
from repro.ssd.context import MODE_TAGGED
from repro.testbed import make_block_testbed


def _wreq(payload: bytes, offset: int = 0) -> PassthruRequest:
    return PassthruRequest(opcode=IoOpcode.WRITE, data=payload, cdw10=offset)


def _bringup_opportunities(kind: str, **rig) -> int:
    """Fault opportunities of *kind* consumed by controller bring-up.

    Scheduling a fault at this index targets the first I/O-phase
    opportunity without hard-coding the admin-command count.
    """
    probe_plan = FaultPlan.scheduled({kind: [10 ** 9]})  # active, never fires
    probe = make_block_testbed(fault_plan=probe_plan, **rig)
    return probe.ssd.faults.opportunities[kind]


class TestCorruptedInlineLengthDetected:
    """Acceptance (a)."""

    def test_detected_and_failed_not_misfetched(self):
        payload = bytes(range(256))
        plan = FaultPlan.scheduled({CORRUPT_INLINE_LENGTH: [0]})
        tb = make_block_testbed(fault_plan=plan)
        tb.driver.retry_policy = RetryPolicy(max_attempts=1)  # no recovery
        res = tb.driver.passthru(_wreq(payload), method="byteexpress")
        assert res.status == StatusCode.INVALID_FIELD
        # The decode check caught the garbled length: the chunks were
        # never interpreted as data (or worse, as commands).
        assert tb.personality.read_back(0, len(payload)) == bytes(256)
        assert tb.ssd.controller.fetch_errors == 1
        assert tb.ssd.controller.queue_resyncs == 1
        assert tb.traffic.event_count(
            fault_event(CORRUPT_INLINE_LENGTH)) == 1

    def test_retry_recovers_the_write(self):
        payload = bytes(range(256))
        plan = FaultPlan.scheduled({CORRUPT_INLINE_LENGTH: [0]})
        tb = make_block_testbed(fault_plan=plan)
        res = tb.driver.passthru(_wreq(payload), method="byteexpress")
        assert res.ok
        assert tb.personality.read_back(0, len(payload)) == payload
        assert tb.driver.retries == 1
        assert tb.traffic.event_count(EVT_RETRY) == 1


class TestRetryBackoffRecovery:
    """Acceptance (b)."""

    def test_dropped_cqe_resubmitted_with_backoff(self):
        idx = _bringup_opportunities(DROP_CQE)
        plan = FaultPlan.scheduled({DROP_CQE: [idx]})
        tb = make_block_testbed(fault_plan=plan)
        payload = b"\xA5" * 200
        res = tb.driver.passthru(_wreq(payload), method="byteexpress")
        assert res.ok
        assert tb.personality.read_back(0, 200) == payload
        assert tb.driver.timeouts == 1
        assert tb.driver.retries == 1
        assert tb.ssd.controller.dropped_cqes == 1
        # Backoff is simulated time: the recovered command's latency
        # includes at least the first backoff interval.
        assert res.latency_ns >= tb.driver.retry_policy.backoff_base_ns
        assert tb.traffic.event_count(EVT_TIMEOUT) == 1

    def test_dropped_cqe_on_bandslim_write_resubmitted(self):
        """BandSlim's only CQE (the last fragment's) is lost: the write
        is resubmitted as a fresh fragment stream, like any passthru."""
        idx = _bringup_opportunities(DROP_CQE)
        plan = FaultPlan.scheduled({DROP_CQE: [idx]})
        tb = make_block_testbed(fault_plan=plan)
        payload = bytes(range(100))
        stats = tb.method("bandslim").write(payload)
        assert stats.ok
        assert stats.commands == 4
        assert tb.personality.read_back(0, 100) == payload
        assert tb.driver.timeouts == 1
        assert tb.driver.retries == 1
        assert tb.ssd.controller.dropped_cqes == 1
        # both streams' ids and CIDs are released again
        assert not tb.driver._live_payload_ids
        assert tb.driver.inflight(1) == 0

    def test_dropped_cqe_on_tagged_write_resubmitted(self):
        """A tagged write whose CQE is lost is resubmitted under a fresh
        payload id; the abandoned id is aborted at the controller and
        holds no reassembly state."""
        rig = dict(mode=MODE_TAGGED, include_mmio=False)
        idx = _bringup_opportunities(DROP_CQE, **rig)
        plan = FaultPlan.scheduled({DROP_CQE: [idx]})
        tb = make_block_testbed(fault_plan=plan, **rig)
        ctrl = tb.ssd.controller
        aborted = []
        abort_payload = ctrl.abort_payload

        def recording_abort(payload_id):
            aborted.append(payload_id)
            abort_payload(payload_id)

        ctrl.abort_payload = recording_abort
        payload = bytes(range(200))
        stats = tb.method("byteexpress-tagged").write(payload)
        assert stats.ok
        assert tb.personality.read_back(0, 200) == payload
        assert tb.driver.retries == 1
        assert len(aborted) == 1
        reassembly = ctrl._reassembly
        assert aborted[0] not in reassembly._inflight
        assert aborted[0] not in reassembly._expected_len
        assert reassembly.in_flight == 0
        assert not tb.driver._live_payload_ids

    def test_dropped_doorbell_recovered_by_reringing(self):
        idx = _bringup_opportunities(DROP_DOORBELL)
        plan = FaultPlan.scheduled({DROP_DOORBELL: [idx]})
        tb = make_block_testbed(fault_plan=plan)
        payload = b"\x5A" * 64
        res = tb.driver.passthru(_wreq(payload), method="byteexpress")
        assert res.ok
        assert tb.personality.read_back(0, 64) == payload
        # Re-ringing the doorbell recovered the command without a full
        # resubmission; a stalled command is not charged a timeout.
        assert tb.driver.timeouts == 0
        assert tb.driver.retries == 0
        # The re-ring is one extra doorbell write on the wire.
        assert tb.ssd.faults.opportunities[DROP_DOORBELL] == idx + 2
        clean = make_block_testbed()
        clean.driver.passthru(_wreq(payload), method="byteexpress")
        assert (tb.traffic.category(CAT_DOORBELL).tlp_count
                == clean.traffic.category(CAT_DOORBELL).tlp_count + 1)

    def test_delayed_cqe_still_completes(self):
        clean = make_block_testbed()
        base = clean.driver.passthru(_wreq(b"x" * 64),
                                     method="byteexpress").latency_ns
        idx = _bringup_opportunities(DELAY_CQE)
        plan = FaultPlan.scheduled({DELAY_CQE: [idx]})
        tb = make_block_testbed(fault_plan=plan)
        res = tb.driver.passthru(_wreq(b"x" * 64), method="byteexpress")
        assert res.ok and tb.driver.retries == 0
        assert res.latency_ns >= base + DELAY_CQE_NS

    def test_corrupt_tlp_replay_preserves_data(self):
        plan = FaultPlan(rates={CORRUPT_TLP: 1.0})
        tb = make_block_testbed(fault_plan=plan)
        payload = bytes(range(128))
        res = tb.driver.passthru(_wreq(payload), method="prp")
        assert res.ok  # link-layer replay is invisible to the protocol
        assert tb.personality.read_back(0, 128) == payload
        assert tb.traffic.event_count(EVT_TLP_REPLAY) > 0

    def test_attempt_budget_exhausted_surfaces_error_status(self):
        plan = FaultPlan(rates={CORRUPT_CHUNK: 1.0})
        tb = make_block_testbed(fault_plan=plan)
        # Huge breaker threshold: stay on the inline path to the end.
        tb.driver.breaker = CircuitBreaker(BreakerConfig(threshold=10 ** 6))
        tb.driver.retry_policy = RetryPolicy(max_attempts=2)
        res = tb.driver.passthru(_wreq(b"y" * 200), method="byteexpress")
        assert res.status == StatusCode.DATA_TRANSFER_ERROR
        assert tb.driver.retries == 1  # attempt 2 was the last allowed

    def test_persistent_silence_raises_timeout_error(self):
        idx = _bringup_opportunities(DROP_CQE)
        plan = FaultPlan.scheduled({DROP_CQE: [idx, idx + 1]})
        tb = make_block_testbed(fault_plan=plan)
        tb.driver.breaker = CircuitBreaker(BreakerConfig(threshold=10 ** 6))
        tb.driver.retry_policy = RetryPolicy(max_attempts=2)
        with pytest.raises(CommandTimeoutError):
            tb.driver.passthru(_wreq(b"z" * 64), method="byteexpress")


class TestCircuitBreakerFallback:
    """Acceptance (c)."""

    def test_repeated_inline_faults_trip_and_downgrade(self):
        plan = FaultPlan(rates={CORRUPT_CHUNK: 1.0})  # inline always fails
        tb = make_block_testbed(fault_plan=plan)
        drv = tb.driver
        payload = b"\xC3" * 200

        res = drv.passthru(_wreq(payload), method="byteexpress")
        # threshold (3) consecutive inline failures trip the breaker;
        # the remaining attempts run on PRP and succeed.
        assert res.ok
        assert tb.personality.read_back(0, 200) == payload
        assert drv.breaker.trips == 1
        assert drv.breaker.state == STATE_OPEN
        assert drv.inline_fallbacks == 1
        assert tb.traffic.event_count(EVT_BREAKER_TRIP) == 1
        assert tb.traffic.event_count(EVT_INLINE_FALLBACK) == 1

        # While open, small writes skip the inline path entirely.
        inline_before = tb.ssd.controller.inline_payloads
        for i in range(1, 6):
            r = drv.passthru(_wreq(payload, offset=i * 4096),
                             method="byteexpress")
            assert r.ok
            assert tb.personality.read_back(i * 4096, 200) == payload
        assert tb.ssd.controller.inline_payloads == inline_before
        assert drv.inline_fallbacks == 6

    def test_half_open_probe_reopens_under_persistent_faults(self):
        plan = FaultPlan(rates={CORRUPT_CHUNK: 1.0})
        tb = make_block_testbed(fault_plan=plan)
        drv = tb.driver
        cooldown = drv.breaker.config.cooldown_ops
        # Enough writes to burn through the cooldown and probe again.
        for i in range(cooldown + 8):
            r = drv.passthru(_wreq(b"w" * 150, offset=i * 4096),
                             method="byteexpress")
            assert r.ok  # every op is eventually served (via PRP)
        assert drv.breaker.trips >= 2  # the failed probe re-tripped


class TestDeterminism:
    """Identical seeds → bit-identical runs, faults and all."""

    @staticmethod
    def _run(seed: int):
        plan = FaultPlan(seed=seed, rates={CORRUPT_CHUNK: 0.15,
                                           CORRUPT_INLINE_LENGTH: 0.10,
                                           DELAY_CQE: 0.10,
                                           CORRUPT_TLP: 0.10})
        tb = make_block_testbed(fault_plan=plan)
        statuses, latencies = [], []
        for i in range(40):
            res = tb.driver.passthru(
                _wreq(bytes([i & 0xFF]) * 180, offset=i * 4096),
                method="byteexpress")
            statuses.append(res.status)
            latencies.append(res.latency_ns)
        return (statuses, latencies, tb.traffic.events(), tb.clock.now,
                tb.driver.retries, tb.driver.timeouts,
                tb.driver.breaker.trips)

    def test_two_runs_identical(self):
        first = self._run(0xFA017)
        second = self._run(0xFA017)
        assert first == second
        # And the runs were not trivially fault-free.
        events = first[2]
        assert sum(v for k, v in events.items()
                   if k.startswith("fault.")) > 0


class TestFaultsCli:
    def test_faults_command_reports_recovery(self, capsys):
        from repro.cli import main

        assert main(["faults", "--ops", "30", "--rate", "0.1",
                     "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "driver retries" in out
        assert "breaker state" in out
        assert "latency:" in out

    def test_sweep_with_faults_flag(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--sizes", "64,256", "--ops", "5",
                     "--methods", "byteexpress", "--faults", "0.02"]) == 0
        assert "byteexpress" in capsys.readouterr().out
