"""Regression tests for the two real protocol bugs the PR 4 monitor
surfaced.

1. A CQ producer silently overwrote an unconsumed CQE once the ring
   was full.  The one producer, ``DeviceCqState.post``, applies NVMe's
   "full is one less than the size" rule against the host head it
   learns from the CQ-head doorbell, and refuses the post that would
   make its tail meet that head with a loud ``CqOverrunError``.

2. The driver reallocated the CID of an *abandoned* command while the
   device could still complete it, so the late CQE resolved the wrong
   command.  Fixed with a quarantine (``zombie_cids``): an abandoned
   CID is unallocatable until its late CQE arrives or the queue fully
   drains.
"""

import pytest

from repro.host.memory import HostMemory
from repro.nvme.command import NvmeCommand
from repro.nvme.completion import NvmeCompletion
from repro.nvme.constants import IoOpcode
from repro.nvme.queues import CompletionQueue, CqOverrunError
from repro.ssd.context import DeviceCqState
from repro.testbed import make_block_testbed


class _Ring:
    """A host CQ and the device producer posting into its ring."""

    def __init__(self, depth: int) -> None:
        self.cq = CompletionQueue(qid=1, depth=depth, memory=HostMemory())
        self.dev = DeviceCqState(qid=1, base_addr=self.cq.base_addr,
                                 depth=depth)

    def post(self, cid: int) -> None:
        self.dev.post(NvmeCompletion(cid=cid), self.cq.memory)

    def poll(self) -> NvmeCompletion:
        """Consume one CQE and report the head, as the CQ-head
        doorbell does."""
        cqe = self.cq.poll()
        self.dev.host_head = self.cq.head
        return cqe

    def unconsumed(self) -> int:
        return (self.dev.tail - self.cq.head) % self.cq.depth


class TestCqOverrunGuard:
    def test_full_ring_keeps_one_slot_free(self):
        """NVMe's rule: full is one less than the size, so depth - 1
        posts fit and the next raises with the ring untouched, wherever
        the head sits (here one lap and a slot in)."""
        ring = _Ring(depth=4)
        for cid in range(5):
            ring.post(cid)
            assert ring.poll().cid == cid
        assert ring.dev.phase == 0
        for cid in range(3):
            ring.post(cid)
        assert ring.unconsumed() == 3
        with pytest.raises(CqOverrunError):
            ring.post(99)
        assert ring.unconsumed() == 3
        # The unconsumed completions survive intact, in order.
        assert [ring.poll().cid for _ in range(3)] == [0, 1, 2]
        assert ring.cq.poll() is None

    def test_post_into_full_ring_raises_instead_of_overwriting(self):
        ring = _Ring(depth=4)
        for cid in range(3):
            ring.post(cid)
        with pytest.raises(CqOverrunError):
            ring.post(99)
        # The unconsumed completions survive intact, in order.
        assert [ring.poll().cid for _ in range(3)] == [0, 1, 2]

    def test_poll_frees_space_for_the_next_post(self):
        ring = _Ring(depth=2)
        ring.post(0)
        with pytest.raises(CqOverrunError):
            ring.post(1)  # depth 2 holds one unconsumed CQE
        assert ring.poll().cid == 0
        assert ring.unconsumed() == 0
        ring.post(1)  # the reported head freed the slot
        assert ring.poll().cid == 1
        ring.post(2)
        assert ring.poll().cid == 2
        assert ring.unconsumed() == 0

    def test_controller_reexports_the_same_exception(self):
        from repro.ssd.controller import CqOverrunError as CtrlError

        assert CtrlError is CqOverrunError


class TestCidQuarantine:
    def _submit(self, tb, qid=1, ring=True):
        return tb.driver.submit("byteexpress",
            NvmeCommand(opcode=IoOpcode.WRITE), b"q" * 64, qid=qid,
            ring=ring)

    def test_retire_quarantines_instead_of_freeing(self):
        tb = make_block_testbed()
        cid = self._submit(tb)
        tb.driver.retire(1, cid)
        res = tb.driver.queue(1)
        assert cid not in res.live_cids
        assert cid in res.zombie_cids

    def test_allocator_skips_quarantined_cids(self):
        tb = make_block_testbed()
        cid = self._submit(tb)
        tb.driver.retire(1, cid)
        res = tb.driver.queue(1)
        res.next_cid = cid  # steer the allocator straight at the zombie
        fresh = tb.driver._alloc_cid(res)
        assert fresh != cid

    def test_late_cqe_lifts_the_quarantine(self):
        """The abandoned command's CQE proves the CID left the device."""
        tb = make_block_testbed()
        cid = self._submit(tb)
        tb.driver.retire(1, cid)  # abandoned while the device holds it
        res = tb.driver.queue(1)
        assert cid in res.zombie_cids
        tb.ssd.controller.process_all()  # the late completion arrives...
        tb.driver.reap(1)  # ...and is consumed
        assert cid not in res.zombie_cids

    def test_full_drain_lifts_the_quarantine(self):
        """With nothing in flight and every CQE consumed, no late CQE
        can exist, so the whole zombie set is released."""
        tb = make_block_testbed()
        tb.driver.retire(1, 777)  # abandon a CID with no command behind it
        res = tb.driver.queue(1)
        assert 777 in res.zombie_cids
        res.next_cid = 777
        assert tb.method("byteexpress").write(b"drain").ok
        assert res.zombie_cids == set()

    def test_quarantine_counts_against_cid_exhaustion(self):
        tb = make_block_testbed()
        res = tb.driver.queue(1)
        res.zombie_cids.update(range(0xFFFF))
        from repro.host.driver import DriverError

        with pytest.raises(DriverError, match="quarantined"):
            tb.driver._alloc_cid(res)
