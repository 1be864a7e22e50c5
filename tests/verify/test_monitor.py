"""Tests for the runtime protocol monitor (``repro.verify.monitor``).

The clean-path tests assert the monitor *observes* real traffic
(check counters advance, zero violations).  The detection tests follow
one pattern: install a deliberately buggy method on the instance
*before* attaching the monitor, so the monitor wraps the buggy code
exactly as it would wrap a regression in the real code, and assert the
right :class:`InvariantViolation` fires.
"""

import pytest

from repro.nvme.command import NvmeCommand
from repro.nvme.completion import NvmeCompletion
from repro.nvme.constants import IoOpcode
from repro.sim.config import SimConfig
from repro.testbed import make_block_testbed, make_engine_testbed
from repro.verify import maybe_attach, verification_enabled
from repro.verify.invariants import (
    INV_CID_UNIQUE,
    INV_CQ_OVERRUN,
    INV_CQ_PHASE,
    INV_INLINE_SEQ,
    INV_RR_FAIRNESS,
    INV_SHADOW,
    INV_SQ_DOORBELL,
    INV_SQ_WINDOW,
    InvariantViolation,
)
from repro.verify.monitor import ProtocolMonitor


def _tb(**kw):
    """A testbed with any env-armed monitor detached (tests attach
    their own so double-wrapping never happens under REPRO_VERIFY=1)."""
    return make_block_testbed(**kw).unmonitor()


def _inline_cmd(nbytes):
    cmd = NvmeCommand(opcode=IoOpcode.WRITE)
    cmd.set_inline_length(nbytes)
    return cmd


# ----------------------------------------------------------- clean path


def test_clean_traffic_is_checked_and_passes():
    tb = _tb()
    mon = ProtocolMonitor.attach_testbed(tb)
    for i in range(4):
        assert tb.method("byteexpress").write(bytes([i]) * 200).ok
    assert tb.method("prp").write(b"z" * 4096).ok
    assert mon.violations == []
    for rule in (INV_SQ_WINDOW, INV_SQ_DOORBELL, INV_INLINE_SEQ,
                 INV_CQ_PHASE, INV_CQ_OVERRUN, INV_CID_UNIQUE,
                 INV_RR_FAIRNESS):
        assert mon.checks[rule] > 0, rule
    assert mon.summary()["violations"] == 0


def test_tagged_traffic_is_clean():
    from repro.ssd.controller import MODE_TAGGED

    tb = _tb(mode=MODE_TAGGED)
    mon = ProtocolMonitor.attach_testbed(tb)
    tb.driver.submit("byteexpress-tagged",
        NvmeCommand(opcode=IoOpcode.WRITE), b"q" * 300, qid=1, payload_id=9)
    tb.ssd.controller.process_all()
    (cqe,) = tb.driver.reap(1)
    assert cqe.ok
    assert mon.violations == []


def test_monitored_engine_run_is_clean():
    tb = make_engine_testbed(queues=2).unmonitor()
    mon = ProtocolMonitor.attach_testbed(tb)
    tb.monitor = mon  # make_engine() attaches the table wrapper
    eng = tb.make_engine(queues=2, qd=4)
    futs = [eng.submit(bytes([i]) * 64, cdw10=i * 4096) for i in range(8)]
    eng.drain()
    assert all(f.ok for f in futs)
    assert mon.violations == []
    assert "add" in eng.table.__dict__  # table wrapper installed


# ------------------------------------------------------------ detection


def test_torn_inline_sequence_flagged_at_doorbell():
    tb = _tb()
    mon = ProtocolMonitor.attach_testbed(tb)
    res = tb.driver.queue(1)
    with res.sq.lock:
        res.sq.push_raw(_inline_cmd(64 * 2).pack())  # promises 2 chunks
        with pytest.raises(InvariantViolation) as exc:
            res.sq.ring_doorbell()  # ...but publishes none
    assert exc.value.rule == INV_SQ_DOORBELL
    assert "unwritten" in str(exc.value)
    assert mon.violations[-1].rule == INV_SQ_DOORBELL


def test_malformed_inline_length_flagged_at_push():
    tb = _tb()
    ProtocolMonitor.attach_testbed(tb)
    res = tb.driver.queue(1)
    cmd = NvmeCommand(opcode=IoOpcode.WRITE)
    cmd.cdw2 = 1 << 30  # absurd inline length
    with res.sq.lock:
        with pytest.raises(InvariantViolation) as exc:
            res.sq.push_raw(cmd.pack())
    assert exc.value.rule == INV_INLINE_SEQ


def test_window_growing_head_report_flagged():
    tb = _tb()
    sq = tb.driver.queue(1).sq

    def buggy_note(head):  # applies stale reports without the guard
        sq.head = head  # verify: ignore[VER104]

    object.__setattr__(sq, "note_sq_head", buggy_note)
    ProtocolMonitor.attach_testbed(tb)
    with pytest.raises(InvariantViolation) as exc:
        sq.note_sq_head((sq.head - 1) % sq.depth)  # backwards report
    assert exc.value.rule == INV_SQ_WINDOW
    assert "grew the in-flight window" in str(exc.value)


def _monitor_device_cq(tb, buggy_post):
    """Install *buggy_post* as CQ 1's device producer, then attach a
    monitor that wraps it through ``attach_controller``."""
    ctrl = tb.ssd.controller
    dev = ctrl._cqs[1]
    object.__setattr__(dev, "post", buggy_post)
    mon = ProtocolMonitor()
    mon.attach_cq(tb.driver.queue(1).cq)
    mon.attach_controller(ctrl)
    return mon, dev


def test_wrong_phase_completion_flagged():
    tb = _tb()

    def buggy_post(cqe, memory):  # forgets to stamp the device phase
        pass

    _mon, dev = _monitor_device_cq(tb, buggy_post)
    with pytest.raises(InvariantViolation) as exc:
        # expected phase 1
        dev.post(NvmeCompletion(cid=1, phase=0), tb.driver.memory)
    assert exc.value.rule == INV_CQ_PHASE


def test_cq_overrun_flagged_with_unguarded_producer():
    tb = _tb()

    def buggy_post(cqe, memory):  # the pre-fix producer: no overrun guard
        pass

    mon, dev = _monitor_device_cq(tb, buggy_post)
    memory = tb.driver.memory
    for _ in range(dev.depth):  # no live CQE overwritten yet
        dev.post(NvmeCompletion(cid=1, phase=1), memory)
    assert mon.violations == []
    with pytest.raises(InvariantViolation) as exc:
        # lap 2, none read
        dev.post(NvmeCompletion(cid=1, phase=0), memory)
    assert exc.value.rule == INV_CQ_OVERRUN


def test_live_cid_reallocation_flagged():
    tb = _tb()
    cid = tb.driver.submit("byteexpress",
        NvmeCommand(opcode=IoOpcode.WRITE), b"x" * 64, qid=1, ring=False)

    def buggy_alloc(res, track=True):  # hands out an in-flight CID
        return cid

    object.__setattr__(tb.driver, "_alloc_cid", buggy_alloc)
    ProtocolMonitor.attach_testbed(tb)
    with pytest.raises(InvariantViolation) as exc:
        tb.driver._alloc_cid(tb.driver.queue(1))
    assert exc.value.rule == INV_CID_UNIQUE
    assert "in flight" in str(exc.value)


def test_zombie_cid_reallocation_flagged():
    tb = _tb()
    cid = tb.driver.submit("byteexpress",
        NvmeCommand(opcode=IoOpcode.WRITE), b"x" * 64, qid=1)
    tb.driver.retire(1, cid)  # abandoned: CID now quarantined

    def buggy_alloc(res, track=True):
        return cid

    object.__setattr__(tb.driver, "_alloc_cid", buggy_alloc)
    ProtocolMonitor.attach_testbed(tb)
    with pytest.raises(InvariantViolation) as exc:
        tb.driver._alloc_cid(tb.driver.queue(1))
    assert exc.value.rule == INV_CID_UNIQUE
    assert "quarantine" in str(exc.value)


def test_torn_shadow_tail_store_flagged():
    cfg = SimConfig(num_io_queues=1, doorbell_mode="shadow")
    tb = _tb(config=cfg)
    assert tb.driver.shadow is not None
    ProtocolMonitor.attach_testbed(tb)
    with pytest.raises(InvariantViolation) as exc:
        tb.driver.shadow.write_sq_tail(1, 3)  # host tail is still 0
    assert exc.value.rule == INV_SHADOW


def test_firmware_starvation_flagged():
    tb = _tb()
    ctrl = tb.ssd.controller
    object.__setattr__(ctrl, "poll_once", lambda: 0)  # sweep serves no one
    mon = ProtocolMonitor.attach_testbed(tb)
    tb.driver.submit("byteexpress",
        NvmeCommand(opcode=IoOpcode.WRITE), b"x" * 64, qid=1)
    for _ in range(mon.fairness_bound - 1):
        ctrl.poll_once()
    with pytest.raises(InvariantViolation) as exc:
        ctrl.poll_once()
    assert exc.value.rule == INV_RR_FAIRNESS


# ----------------------------------------------------- modes & lifecycle


def test_record_only_mode_collects_instead_of_raising():
    tb = _tb()
    mon = ProtocolMonitor.attach_testbed(tb, raise_on_violation=False)
    res = tb.driver.queue(1)
    with res.sq.lock:
        res.sq.push_raw(_inline_cmd(64 * 3).pack())
        res.sq.ring_doorbell()  # torn sequence: recorded, not raised
    assert [v.rule for v in mon.violations] == [INV_SQ_DOORBELL]
    assert mon.summary()["violations"] == 1


def test_detach_restores_class_methods():
    tb = _tb()
    mon = ProtocolMonitor.attach_testbed(tb)
    res = tb.driver.queue(1)
    assert "push_raw" in res.sq.__dict__
    assert "poll" in res.cq.__dict__
    assert "_alloc_cid" in tb.driver.__dict__
    mon.detach()
    assert "push_raw" not in res.sq.__dict__
    assert "ring_doorbell" not in res.sq.__dict__
    assert "poll" not in res.cq.__dict__
    assert "_alloc_cid" not in tb.driver.__dict__
    assert tb.method("byteexpress").write(b"after detach").ok


def test_fairness_bound_validation():
    with pytest.raises(ValueError):
        ProtocolMonitor(fairness_bound=0)


# ------------------------------------------------------- env-flag wiring


def test_env_flag_arms_every_factory(monkeypatch):
    monkeypatch.setenv("REPRO_VERIFY", "1")
    assert verification_enabled()
    tb = make_block_testbed()
    assert isinstance(tb.monitor, ProtocolMonitor)
    assert tb.method("byteexpress").write(b"monitored").ok
    assert tb.monitor.violations == []
    tb.unmonitor()
    assert tb.monitor is None


def test_env_flag_off_means_no_monitor(monkeypatch):
    monkeypatch.delenv("REPRO_VERIFY", raising=False)
    assert not verification_enabled()
    assert make_block_testbed().monitor is None
    monkeypatch.setenv("REPRO_VERIFY", "0")
    assert not verification_enabled()
    assert make_block_testbed().monitor is None


def test_maybe_attach_respects_flag(monkeypatch):
    monkeypatch.delenv("REPRO_VERIFY", raising=False)
    assert maybe_attach(_tb()) is None
    monkeypatch.setenv("REPRO_VERIFY", "1")
    mon = maybe_attach(_tb())
    assert isinstance(mon, ProtocolMonitor)
