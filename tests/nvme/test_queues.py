"""SQ/CQ ring semantics: locking, wrap, fullness, phase protocol."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.host.memory import HostMemory
from repro.nvme.completion import NvmeCompletion
from repro.nvme.constants import SQE_SIZE
from repro.nvme.queues import (
    CompletionQueue,
    LockNotHeldError,
    QueueFullError,
    QueueLock,
    SubmissionQueue,
)
from repro.ssd.context import DeviceCqState


def _sq(depth=8):
    return SubmissionQueue(qid=1, depth=depth, memory=HostMemory())


def _entry(tag: int) -> bytes:
    return bytes([tag & 0xFF]) * SQE_SIZE


class TestQueueLock:
    def test_context_manager(self):
        lock = QueueLock()
        assert not lock.held
        with lock:
            assert lock.held
        assert not lock.held
        assert lock.acquisitions == 1

    def test_not_reentrant(self):
        lock = QueueLock()
        with lock:
            with pytest.raises(RuntimeError):
                lock.__enter__()


class TestSubmissionQueue:
    def test_push_requires_lock(self):
        sq = _sq()
        with pytest.raises(LockNotHeldError):
            sq.push_raw(_entry(1))

    def test_push_writes_to_memory_at_slot(self):
        sq = _sq()
        with sq.lock:
            slot = sq.push_raw(_entry(7))
        assert slot == 0
        assert sq.memory.read(sq.slot_addr(0), SQE_SIZE) == _entry(7)

    def test_entry_size_enforced(self):
        sq = _sq()
        with sq.lock:
            with pytest.raises(ValueError):
                sq.push_raw(b"short")

    def test_full_queue_rejects(self):
        sq = _sq(depth=4)
        with sq.lock:
            for i in range(3):  # one slot kept open
                sq.push_raw(_entry(i))
            assert sq.is_full()
            with pytest.raises(QueueFullError):
                sq.push_raw(_entry(9))

    def test_space_accounting(self):
        sq = _sq(depth=8)
        assert sq.space() == 7
        with sq.lock:
            sq.push_raw(_entry(0))
        assert sq.space() == 6

    def test_doorbell_publishes_tail(self):
        sq = _sq()
        with sq.lock:
            sq.push_raw(_entry(0))
            sq.push_raw(_entry(1))
            assert sq.shadow_tail == 0  # device can't see them yet
            assert sq.ring_doorbell() == 2
        assert sq.shadow_tail == 2

    def test_head_report_frees_slots(self):
        sq = _sq(depth=4)
        with sq.lock:
            for i in range(3):
                sq.push_raw(_entry(i))
        sq.note_sq_head(2)
        assert sq.space() == 2

    def test_head_report_validated(self):
        sq = _sq(depth=4)
        with pytest.raises(ValueError):
            sq.note_sq_head(4)

    def test_wraparound(self):
        sq = _sq(depth=4)
        for round_ in range(5):
            with sq.lock:
                slot = sq.push_raw(_entry(round_))
            sq.note_sq_head(sq.tail)  # device instantly consumes
            assert slot == round_ % 4

    def test_depth_minimum(self):
        with pytest.raises(ValueError):
            SubmissionQueue(qid=1, depth=1, memory=HostMemory())

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=40))
    @settings(max_examples=30)
    def test_fifo_order_preserved_under_wrap(self, tags):
        """Entries read back from slots in push order match exactly."""
        sq = _sq(depth=8)
        for tag in tags:
            if sq.is_full():
                sq.note_sq_head(sq.tail)  # consume everything
            with sq.lock:
                slot = sq.push_raw(_entry(tag))
            assert sq.memory.read(sq.slot_addr(slot), SQE_SIZE) == _entry(tag)


class TestCompletionQueue:
    """The host CQ consumes what the device's producer posts into the
    same ring; each poll feeds the head back as the CQ-head doorbell
    does."""

    def _cq(self, depth=4):
        cq = CompletionQueue(qid=1, depth=depth, memory=HostMemory())
        dev = DeviceCqState(qid=1, base_addr=cq.base_addr, depth=depth)
        return cq, dev

    @staticmethod
    def _post(cq, dev, cid):
        dev.post(NvmeCompletion(cid=cid), cq.memory)

    @staticmethod
    def _poll(cq, dev):
        cqe = cq.poll()
        dev.host_head = cq.head
        return cqe

    def test_poll_empty_returns_none(self):
        cq, _dev = self._cq()
        assert cq.poll() is None

    def test_post_then_poll(self):
        cq, dev = self._cq()
        self._post(cq, dev, 5)
        cqe = self._poll(cq, dev)
        assert cqe is not None and cqe.cid == 5
        assert cq.poll() is None

    def test_phase_flips_on_wrap(self):
        cq, dev = self._cq(depth=4)
        for i in range(10):
            self._post(cq, dev, i)
            cqe = self._poll(cq, dev)
            assert cqe is not None and cqe.cid == i

    def test_drain(self):
        cq, dev = self._cq(depth=8)
        for i in range(3):
            self._post(cq, dev, i)
        cqes = []
        while (cqe := self._poll(cq, dev)) is not None:
            cqes.append(cqe)
        assert [c.cid for c in cqes] == [0, 1, 2]
        assert cq.poll() is None

    def test_stale_entry_not_consumed(self):
        """After a full wrap, an old-phase entry must not be re-read."""
        cq, dev = self._cq(depth=2)
        self._post(cq, dev, 1)
        assert self._poll(cq, dev).cid == 1
        # Nothing new posted: the old entry at slot 1... slot 0 holds a
        # stale phase-1 CQE but head now points at slot 1 (phase 1 expected)
        assert cq.poll() is None

    def test_poll_on_unmapped_ring_raises_memory_error(self):
        """The phase bit is tested in the ring's frame in place; a ring
        whose page is gone still raises as a host-memory read would."""
        cq, dev = self._cq()
        self._post(cq, dev, 3)
        cq.memory.free_page(cq.base_addr)
        with pytest.raises(MemoryError, match="unmapped"):
            cq.poll()
        assert cq.head == 0 and cq.phase == 1

    def test_poll_reads_the_slot_in_place(self):
        """A posted CQE decodes field for field from the ring frame, at
        every slot of a wrapping ring."""
        cq, dev = self._cq(depth=3)
        for i in range(7):
            dev.post(NvmeCompletion(result=0xABCD0000 + i, sq_head=i % 5,
                                    sq_id=1, cid=100 + i, status=0x11,
                                    dnr=bool(i & 1)), cq.memory)
            cqe = self._poll(cq, dev)
            assert (cqe.result, cqe.sq_head, cqe.sq_id, cqe.cid, cqe.status,
                    cqe.dnr) == (0xABCD0000 + i, i % 5, 1, 100 + i, 0x11,
                                 bool(i & 1))
            assert cq.poll() is None
