"""Queue-protocol edge cases: full/empty disambiguation across wraps,
CQ phase-bit laps, doorbell locking, and stale SQ-head reports."""

import pytest

from repro.host.memory import HostMemory
from repro.nvme.completion import NvmeCompletion
from repro.nvme.queues import (
    CompletionQueue,
    LockNotHeldError,
    QueueFullError,
    SubmissionQueue,
)
from repro.ssd.context import DeviceCqState


def _entry(i: int) -> bytes:
    return bytes([i & 0xFF]) * 64


def _sq(depth=8) -> SubmissionQueue:
    return SubmissionQueue(qid=1, depth=depth, memory=HostMemory())


def _cq(depth: int):
    """A host CQ and the device producer that posts into its ring."""
    cq = CompletionQueue(qid=1, depth=depth, memory=HostMemory())
    return cq, DeviceCqState(qid=1, base_addr=cq.base_addr, depth=depth)


def _drain(cq: CompletionQueue, dev: DeviceCqState) -> list:
    """Poll every visible CQE, then report the head as the CQ-head
    doorbell does."""
    out = []
    while (cqe := cq.poll()) is not None:
        out.append(cqe)
    dev.host_head = cq.head
    return out


class TestSqWraparound:
    def test_full_empty_disambiguation_across_laps(self):
        """Fill-to-full then drain-to-empty, repeated over several wraps.

        The one-slot-open convention must keep telling full apart from
        empty no matter where head/tail sit on the ring.
        """
        depth = 8
        sq = _sq(depth=depth)
        for lap in range(5):  # 5 * 7 = 35 entries > 4 full ring laps
            assert sq.space() == depth - 1  # empty
            assert not sq.is_full()
            with sq.lock:
                for i in range(depth - 1):
                    sq.push_raw(_entry(lap * 16 + i))
                assert sq.is_full()
                assert sq.space() == 0
                with pytest.raises(QueueFullError):
                    sq.push_raw(_entry(0xEE))
                sq.ring_doorbell()
            # Device consumes the whole window; head meets tail == empty.
            sq.note_sq_head(sq.tail)
            assert sq.space() == depth - 1

    def test_interleaved_producer_consumer_over_wraps(self):
        """Steady-state two-in-flight across > 3 ring laps."""
        depth = 4
        sq = _sq(depth=depth)
        consumed = 0
        for i in range(3 * depth + 2):
            with sq.lock:
                slot = sq.push_raw(_entry(i))
                sq.ring_doorbell()
            assert slot == i % depth
            consumed += 1
            sq.note_sq_head(consumed % depth)
            assert sq.space() == depth - 1


class TestCqPhaseBit:
    def test_phase_flips_every_lap(self):
        """Poll sees every CQE exactly once across >= 3 phase flips."""
        depth = 4
        cq, dev = _cq(depth)
        for i in range(3 * depth + 2):  # crosses the wrap 3 times
            assert cq.poll() is None  # nothing posted yet
            dev.post(NvmeCompletion(cid=i & 0xFFFF), cq.memory)
            (cqe,) = _drain(cq, dev)  # consumed exactly once
            assert cqe.cid == i & 0xFFFF
            assert cqe.phase == (1 if (i // depth) % 2 == 0 else 0)

    def test_stale_entries_invisible_after_wrap(self):
        """Old-phase entries from the previous lap never repeat."""
        depth = 4
        cq, dev = _cq(depth)
        # Full is one less than the size: the last lap-1 slot is only
        # posted once the host has consumed the first three.
        for i in range(depth - 1):
            dev.post(NvmeCompletion(cid=i), cq.memory)
        assert [c.cid for c in _drain(cq, dev)] == list(range(depth - 1))
        dev.post(NvmeCompletion(cid=depth - 1), cq.memory)
        assert [c.cid for c in _drain(cq, dev)] == [depth - 1]
        # The ring is physically full of lap-1 entries; none may reappear.
        assert cq.poll() is None
        dev.post(NvmeCompletion(cid=99), cq.memory)
        assert [c.cid for c in _drain(cq, dev)] == [99]


class TestDoorbellLocking:
    def test_ring_without_lock_raises(self):
        sq = _sq()
        with sq.lock:
            sq.push_raw(_entry(0))
        with pytest.raises(LockNotHeldError):
            sq.ring_doorbell()
        # The racy ring must not have published anything.
        assert sq.shadow_tail == 0

    def test_ring_between_command_and_chunks_races(self):
        """The ByteExpress ordering bug: publishing a tail from outside
        the lock could expose a half-inserted CMD+chunk sequence."""
        sq = _sq()
        with sq.lock:
            sq.push_raw(_entry(0))  # the command...
            # ...chunks not yet inserted; a second CPU ringing now would
            # be the race.  The lock discipline turns it into an error.
            pass
        with pytest.raises(LockNotHeldError):
            sq.ring_doorbell()
        with sq.lock:
            sq.push_raw(_entry(1))  # the chunk
            assert sq.ring_doorbell() == 2  # whole sequence at once


class TestStaleHeadReports:
    def test_backwards_head_report_ignored(self):
        """Regression: a replayed CQE carrying an older head must not
        rewind the window and fake free space."""
        sq = _sq(depth=8)
        with sq.lock:
            for i in range(5):
                sq.push_raw(_entry(i))
        sq.note_sq_head(4)  # device consumed 4 entries
        assert sq.head == 4 and sq.space() == 6
        sq.note_sq_head(2)  # stale report from an out-of-order CQE
        assert sq.head == 4  # ignored
        assert sq.space() == 6

    def test_stale_report_across_wrap_ignored(self):
        sq = _sq(depth=4)
        # Advance the ring one full lap: head == tail == 2 on lap 2.
        for i in range(6):
            with sq.lock:
                sq.push_raw(_entry(i))
            sq.note_sq_head(sq.tail)
        assert sq.head == sq.tail == 6 % 4
        sq.note_sq_head(3)  # numerically "ahead" but outside (head..tail]
        assert sq.head == 2

    def test_in_window_reports_still_apply(self):
        sq = _sq(depth=8)
        with sq.lock:
            for i in range(5):
                sq.push_raw(_entry(i))
        for good in (1, 3, 5):  # monotone progress through the window
            sq.note_sq_head(good)
            assert sq.head == good

    def test_out_of_range_head_still_rejected(self):
        sq = _sq(depth=4)
        with pytest.raises(ValueError):
            sq.note_sq_head(4)
