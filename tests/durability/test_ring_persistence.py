"""SQ/CQ ring persistence: snapshot/restore mid-ring, scrub in place.

The interesting corner is the wraparound: a submission tail past the
ring boundary and a completion queue whose phase bits have flipped.  A
snapshot taken mid-ring must capture both pointers *and* the raw slot
bytes, so a restore reproduces identical subsequent behaviour.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.host.memory import HostMemory
from repro.host.shadow import ShadowDoorbells
from repro.nvme.completion import NvmeCompletion
from repro.nvme.constants import CQE_SIZE, SQE_SIZE
from repro.nvme.queues import CompletionQueue, SubmissionQueue


def sqe(tag: int) -> bytes:
    return bytes([tag & 0xFF]) * SQE_SIZE


def drive_sq_past_wrap(sq: SubmissionQueue) -> None:
    """Push/free until the tail has wrapped at least once."""
    pushed = 0
    with sq.lock:
        while pushed < sq.depth + 1:
            if sq.is_full():
                # Device consumed everything it was shown.
                sq.ring_doorbell()
                sq.note_sq_head(sq.tail)
            sq.push_raw(sqe(pushed))
            pushed += 1


class TestSubmissionQueue:
    def test_snapshot_restore_round_trips_past_the_wrap(self):
        memory = HostMemory()
        sq = SubmissionQueue(qid=1, depth=4, memory=memory)
        drive_sq_past_wrap(sq)
        assert sq.tail < 4  # wrapped
        image = sq.snapshot()
        saved = (sq.tail, sq.head, sq.shadow_tail,
                 memory.read(sq.base_addr, 4 * SQE_SIZE))

        # Wander off: more pushes, then a full scrub.
        with sq.lock:
            sq.ring_doorbell()
            sq.note_sq_head(sq.tail)
            sq.push_raw(sqe(0xEE))
        sq.scrub()
        assert sq.tail == 0 and memory.read(sq.base_addr, SQE_SIZE) == \
            bytes(SQE_SIZE)

        sq.restore(image)
        assert (sq.tail, sq.head, sq.shadow_tail,
                memory.read(sq.base_addr, 4 * SQE_SIZE)) == saved

    def test_restore_reproduces_subsequent_behaviour(self):
        memory = HostMemory()
        sq = SubmissionQueue(qid=1, depth=4, memory=memory)
        drive_sq_past_wrap(sq)
        image = sq.snapshot()
        with sq.lock:
            before = sq.push_raw(sqe(0xAB))
        sq.restore(image)
        with sq.lock:
            after = sq.push_raw(sqe(0xAB))
        # Same slot, same bytes: the ring picked up exactly where the
        # snapshot left it.
        assert after == before
        assert memory.read(sq.slot_addr(after), SQE_SIZE) == sqe(0xAB)

    def test_scrub_is_in_place(self):
        memory = HostMemory()
        sq = SubmissionQueue(qid=1, depth=4, memory=memory)
        base, lock = sq.base_addr, sq.lock
        drive_sq_past_wrap(sq)
        sq.scrub()
        assert sq.base_addr == base and sq.lock is lock
        assert (sq.tail, sq.head, sq.shadow_tail) == (0, 0, 0)
        assert memory.read(base, 4 * SQE_SIZE) == bytes(4 * SQE_SIZE)


class TestCompletionQueue:
    def fill_past_phase_flip(self, cq: CompletionQueue) -> None:
        """Post a full ring (device phase flips), consume half of it."""
        for cid in range(cq.depth):
            cq.device_post(NvmeCompletion(cid=cid))
        assert cq.device_phase == 0  # wrapped once
        for _ in range(cq.depth // 2):
            assert cq.poll() is not None

    def test_snapshot_restore_round_trips_both_phase_bits(self):
        memory = HostMemory()
        cq = CompletionQueue(qid=1, depth=4, memory=memory)
        self.fill_past_phase_flip(cq)
        image = cq.snapshot()
        saved = (cq.head, cq.phase, cq.device_tail, cq.device_phase,
                 cq.outstanding, memory.read(cq.base_addr, 4 * CQE_SIZE))
        cq.scrub()
        assert (cq.head, cq.phase, cq.device_tail, cq.device_phase,
                cq.outstanding) == (0, 1, 0, 1, 0)
        cq.restore(image)
        assert (cq.head, cq.phase, cq.device_tail, cq.device_phase,
                cq.outstanding, memory.read(cq.base_addr,
                                            4 * CQE_SIZE)) == saved

    def test_restored_ring_polls_the_same_cqes(self):
        memory = HostMemory()
        cq = CompletionQueue(qid=1, depth=4, memory=memory)
        self.fill_past_phase_flip(cq)
        image = cq.snapshot()
        straight = [c.cid for c in cq.drain()]
        assert straight  # half the ring was still unconsumed
        cq.restore(image)
        assert [c.cid for c in cq.drain()] == straight

    def test_restored_ring_keeps_the_phase_protocol_sound(self):
        # After restore, the *next* post/poll cycle — including the
        # second phase flip — behaves as if never interrupted.
        memory = HostMemory()
        cq = CompletionQueue(qid=1, depth=4, memory=memory)
        self.fill_past_phase_flip(cq)
        image = cq.snapshot()
        cq.drain()
        cq.restore(image)
        cq.drain()
        for cid in (40, 41):
            cq.device_post(NvmeCompletion(cid=cid))
        assert [c.cid for c in cq.drain()] == [40, 41]
        assert cq.outstanding == 0

    def test_scrub_resets_the_phase_protocol_in_place(self):
        memory = HostMemory()
        cq = CompletionQueue(qid=1, depth=4, memory=memory)
        base = cq.base_addr
        self.fill_past_phase_flip(cq)
        cq.scrub()
        assert cq.base_addr == base
        assert cq.poll() is None  # zeroed slots read as empty again
        cq.device_post(NvmeCompletion(cid=7))
        got = cq.poll()
        assert got is not None and got.cid == 7


@settings(max_examples=40, deadline=None)
@given(actions=st.lists(st.booleans(), min_size=1, max_size=40),
       data=st.data())
def test_cq_restore_then_replay_matches_uninterrupted(actions, data):
    """Property: snapshot anywhere, restore, replay — same completions.

    *actions* is a post(True)/poll(False) schedule; illegal steps (post
    into a full ring, poll an empty one) are skipped identically in
    both runs because skipping is a pure function of ring state.
    """
    split = data.draw(st.integers(min_value=0, max_value=len(actions)),
                      label="split")

    def drive(cq, schedule, posted_start):
        posted, polled = posted_start, []
        for post in schedule:
            if post and cq.outstanding < cq.depth:
                cq.device_post(NvmeCompletion(cid=posted % 0xFFFF))
                posted += 1
            elif not post:
                got = cq.poll()
                if got is not None:
                    polled.append(got.cid)
        return posted, polled

    straight = CompletionQueue(qid=1, depth=4, memory=HostMemory())
    s_posted, s_polled = drive(straight, actions, 0)

    interrupted = CompletionQueue(qid=1, depth=4, memory=HostMemory())
    posted, head_polled = drive(interrupted, actions[:split], 0)
    image = interrupted.snapshot()
    drive(interrupted, [True, False, True], posted)  # wander off
    interrupted.restore(image)
    _, tail_polled = drive(interrupted, actions[split:], posted)

    assert head_polled + tail_polled == s_polled
    assert interrupted.snapshot() == straight.snapshot()


class TestShadowDoorbells:
    def test_scrub_zeroes_both_pages_in_place(self):
        memory = HostMemory()
        shadow = ShadowDoorbells(memory)
        addrs = (shadow.shadow_addr, shadow.eventidx_addr)
        shadow.write_sq_tail(1, 17)
        shadow.write_cq_head(1, 9)
        shadow.write_sq_eventidx(1, 16)
        shadow.write_poll_until(1234.5)
        shadow.scrub()
        assert (shadow.shadow_addr, shadow.eventidx_addr) == addrs
        assert shadow.read_sq_tail(1) == 0
        assert shadow.read_cq_head(1) == 0
        assert shadow.read_sq_eventidx(1) == 0
        assert shadow.read_poll_until() == 0.0

    def test_snapshot_restore_round_trips_the_slots(self):
        memory = HostMemory()
        shadow = ShadowDoorbells(memory)
        shadow.write_sq_tail(2, 5)
        shadow.write_poll_until(99.0)
        image = shadow.snapshot()
        shadow.scrub()
        shadow.restore(image)
        assert shadow.read_sq_tail(2) == 5
        assert shadow.read_poll_until() == 99.0
