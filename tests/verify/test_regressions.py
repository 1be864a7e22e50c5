"""Regression tests for the two real protocol bugs the PR 4 monitor
surfaced.

1. ``CompletionQueue.device_post`` silently overwrote an unconsumed CQE
   once ``depth`` completions were outstanding (the phase bit makes a
   completely full ring legal, so the old one-slot-free heuristic did
   not apply).  Fixed with an ``outstanding`` counter and a loud
   ``CqOverrunError``.

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
from repro.testbed import make_block_testbed


def _cq(depth=4):
    return CompletionQueue(qid=1, depth=depth, memory=HostMemory())


class TestCqOverrunGuard:
    def test_ring_may_fill_completely(self):
        """Phase bit, not a sacrificed slot: depth posts are legal."""
        cq = _cq(depth=4)
        for cid in range(4):
            cq.device_post(NvmeCompletion(cid=cid))
        assert cq.outstanding == 4

    def test_post_into_full_ring_raises_instead_of_overwriting(self):
        cq = _cq(depth=4)
        for cid in range(4):
            cq.device_post(NvmeCompletion(cid=cid))
        with pytest.raises(CqOverrunError):
            cq.device_post(NvmeCompletion(cid=99))
        # The unconsumed completions survive intact, in order.
        assert [cq.poll().cid for _ in range(4)] == [0, 1, 2, 3]

    def test_poll_frees_space_for_the_next_post(self):
        cq = _cq(depth=2)
        cq.device_post(NvmeCompletion(cid=0))
        cq.device_post(NvmeCompletion(cid=1))
        assert cq.poll().cid == 0
        assert cq.outstanding == 1
        cq.device_post(NvmeCompletion(cid=2))  # would have raised before
        assert cq.poll().cid == 1
        assert cq.poll().cid == 2
        assert cq.outstanding == 0

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
