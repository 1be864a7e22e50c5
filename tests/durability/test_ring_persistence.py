"""SQ/CQ ring and shadow-page power cuts: scrub in place.

The interesting corner is the wraparound: a submission tail past the
ring boundary and a completion queue whose phase bits have flipped.  A
scrub there must reset both pointers and zero the raw slot bytes while
the ring keeps its base address, so the next post/poll cycle is sound.
"""

from repro.host.memory import HostMemory
from repro.host.shadow import ShadowDoorbells
from repro.nvme.completion import NvmeCompletion
from repro.nvme.constants import SQE_SIZE
from repro.nvme.queues import CompletionQueue, SubmissionQueue
from repro.ssd.context import DeviceCqState


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
    @staticmethod
    def device_for(cq: CompletionQueue) -> DeviceCqState:
        """The controller's producer state over *cq*'s ring."""
        return DeviceCqState(qid=cq.qid, base_addr=cq.base_addr,
                             depth=cq.depth)

    def fill_past_phase_flip(self, cq: CompletionQueue,
                             dev: DeviceCqState) -> None:
        """Post a full lap (device phase flips), consume half of it.

        The device keeps one slot free, so the lap's last post waits
        for the host to consume (and report through its CQ-head
        doorbell) the first CQE.
        """
        for cid in range(cq.depth - 1):
            dev.post(NvmeCompletion(cid=cid), cq.memory)
        assert cq.poll() is not None
        dev.host_head = cq.head
        dev.post(NvmeCompletion(cid=cq.depth - 1), cq.memory)
        assert dev.phase == 0  # wrapped once
        for _ in range(cq.depth // 2):
            assert cq.poll() is not None

    def test_scrub_resets_the_phase_protocol_in_place(self):
        memory = HostMemory()
        cq = CompletionQueue(qid=1, depth=4, memory=memory)
        base = cq.base_addr
        self.fill_past_phase_flip(cq, self.device_for(cq))
        cq.scrub()
        assert cq.base_addr == base
        assert cq.poll() is None  # zeroed slots read as empty again
        # The controller's producer state is rebuilt at bring-up.
        self.device_for(cq).post(NvmeCompletion(cid=7), memory)
        got = cq.poll()
        assert got is not None and got.cid == 7


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
