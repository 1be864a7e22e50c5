"""Placement policies and QD-cap backpressure."""

import pytest

from repro.engine.scheduler import MultiQueueScheduler, SchedulerError


def test_round_robin_rotates_across_queues():
    s = MultiQueueScheduler([1, 2, 3], qd_cap=4)
    picks = [s.pick() for _ in range(6)]
    assert picks == [1, 2, 3, 1, 2, 3]


def test_round_robin_skips_capped_queue():
    s = MultiQueueScheduler([1, 2], qd_cap=1)
    q = s.pick()
    s.note_submit(q)
    other = s.pick()
    assert other != q
    s.note_submit(other)
    assert s.pick() is None
    assert s.rejections == 1
    s.note_complete(q)
    assert s.pick() == q


def test_least_inflight_joins_shortest_queue():
    s = MultiQueueScheduler([1, 2, 3], qd_cap=8, policy="least_inflight")
    for _ in range(3):
        s.note_submit(1)
    s.note_submit(2)
    assert s.pick() == 3
    s.note_submit(3)
    s.note_submit(3)
    assert s.pick() == 2  # 1:3, 2:1, 3:2 → queue 2


def test_least_inflight_ties_break_to_lowest_qid():
    s = MultiQueueScheduler([3, 1, 2], qd_cap=8, policy="least_inflight")
    assert s.pick() == 3  # declaration order, all tied


def test_affinity_pins_stream_to_queue():
    s = MultiQueueScheduler([1, 2, 3], qd_cap=2, policy="affinity")
    assert s.pick(stream=0) == 1
    assert s.pick(stream=1) == 2
    assert s.pick(stream=5) == 3
    assert s.pick(stream=3) == 1


def test_affinity_is_strict_under_saturation():
    """A saturated home queue means backpressure, never spill-over."""
    s = MultiQueueScheduler([1, 2], qd_cap=1, policy="affinity")
    s.note_submit(1)
    assert s.pick(stream=0) is None  # home queue 1 is full; 2 is free
    assert s.rejections == 1


def test_affinity_requires_stream_id():
    s = MultiQueueScheduler([1], qd_cap=1, policy="affinity")
    with pytest.raises(SchedulerError):
        s.pick()


def test_fits_veto_overrides_policy():
    s = MultiQueueScheduler([1, 2], qd_cap=8)
    assert s.pick(fits=lambda q: q == 2) == 2
    assert s.pick(fits=lambda q: False) is None


def test_accounting_underflow_rejected():
    s = MultiQueueScheduler([1], qd_cap=1)
    with pytest.raises(SchedulerError):
        s.note_complete(1)
    with pytest.raises(SchedulerError):
        s.note_submit(99)


@pytest.mark.parametrize("bad", [
    dict(qids=[], qd_cap=1),
    dict(qids=[1, 1], qd_cap=1),
    dict(qids=[1], qd_cap=0),
    dict(qids=[1], qd_cap=1, policy="random"),
])
def test_invalid_construction(bad):
    with pytest.raises(SchedulerError):
        MultiQueueScheduler(**bad)

