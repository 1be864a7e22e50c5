"""In-flight table and future semantics."""

from collections import deque

import pytest

from repro.datapath import names, resolve
from repro.engine.table import (
    FAILED,
    OK,
    PENDING,
    TIMED_OUT,
    CommandFuture,
    FutureError,
    InFlightCommand,
    InFlightTable,
)
from repro.nvme.completion import NvmeCompletion
from repro.nvme.constants import StatusCode


def _entry(qid, cid, **kw):
    e = InFlightCommand(future=CommandFuture(),
                        spec=resolve(names.BYTEEXPRESS),
                        opcode=0x01, payload=b"x" * 64, **kw)
    e.key = (qid, cid)
    return e


def _cqe(qid, cid, status=StatusCode.SUCCESS, dnr=False):
    return NvmeCompletion(result=0, sq_head=0, sq_id=qid, cid=cid,
                          status=status, dnr=dnr)


def test_future_starts_pending():
    fut = CommandFuture()
    assert fut.state == PENDING
    assert not fut.done
    with pytest.raises(FutureError):
        fut.result()


def test_resolve_success_sets_latency_and_attempts():
    e = _entry(1, 7)
    e.attempts = 2
    e.spec_used = resolve(names.BYTEEXPRESS)
    e.first_submit_ns = 100.0
    e.resolve(_cqe(1, 7), 350.0, deque())
    assert e.future.state == OK
    assert e.future.ok
    assert e.future.latency_ns == 250.0
    assert e.future.attempts == 2
    assert e.future.method_used == "byteexpress"
    assert e.future.result().command_key == (1, 7)


def test_resolve_error_status_marks_failed():
    e = _entry(1, 7)
    e.resolve(_cqe(1, 7, status=StatusCode.INVALID_FIELD, dnr=True), 10.0,
              deque())
    assert e.future.state == FAILED
    assert e.future.status == StatusCode.INVALID_FIELD


def test_fail_without_cqe_is_timeout():
    e = _entry(2, 3)
    e.resolve(None, 5.0, deque())
    assert e.future.state == TIMED_OUT
    with pytest.raises(FutureError):
        e.future.result()


def test_double_resolve_rejected():
    e = _entry(1, 1)
    e.resolve(_cqe(1, 1), 1.0, deque())
    with pytest.raises(FutureError):
        e.resolve(_cqe(1, 1), 2.0, deque())


def test_resolve_queues_only_a_future_with_a_callback():
    due = deque()
    plain, called = _entry(1, 1), _entry(1, 2)
    called.future.callback = print
    plain.resolve(_cqe(1, 1), 1.0, due)
    called.resolve(None, 1.0, due)
    assert list(due) == [called.future]


def test_table_keying_and_per_queue_counts():
    t = InFlightTable()
    t.add(_entry(1, 0))
    t.add(_entry(1, 1))
    t.add(_entry(2, 0))
    assert len(t) == 3
    # The same CID on two queues names two commands.
    assert t.get((1, 0)) is not t.get((2, 0))
    assert t.get((2, 1)) is None
    assert t.high_water == 3
    entry = t.pop((1, 1))
    assert entry.key == (1, 1)
    assert len(t) == 2
    assert t.pop((1, 1)) is None  # idempotent
    assert t.high_water == 3  # high-water survives pops


def test_table_rejects_duplicate_key_and_keyless_entry():
    t = InFlightTable()
    t.add(_entry(1, 5))
    with pytest.raises(ValueError):
        t.add(_entry(1, 5))
    bare = _entry(1, 6)
    bare.key = None
    with pytest.raises(ValueError):
        t.add(bare)


def test_is_inline_tracks_method_used():
    e = _entry(1, 0)
    assert not e.is_inline  # not submitted yet
    e.spec_used = resolve(names.PRP)
    assert not e.is_inline
    e.spec_used = resolve(names.BANDSLIM)
    assert e.is_inline
