"""Firmware doorbell-scan fairness (ISSUE 2, satellite 1).

The firmware loop services doorbells round-robin, but the scan used to
restart from the lowest qid on every sweep: a full sweep advanced the
cursor by exactly its own length, so queue 1 was always serviced first
and, under sustained load on low qids, high qids starved.  The fix
resumes the scan *after the last serviced queue*; these tests pin that
behaviour down via the controller's service-order trace.
"""

from repro.nvme.command import NvmeCommand
from repro.nvme.constants import IoOpcode
from repro.sim.config import SimConfig
from repro.testbed import make_block_testbed


def _rig(queues=3):
    tb = make_block_testbed(
        config=SimConfig(num_io_queues=queues).nand_off())
    tb.ssd.controller.enable_service_log()
    return tb


def _put(tb, qid, offset=0):
    cmd = NvmeCommand(opcode=IoOpcode.WRITE, nsid=1, cdw10=offset)
    tb.driver.submit("prp", cmd, b"\xab" * 64, qid)


def test_scan_resumes_after_last_serviced_queue():
    """The regression: service q1 alone, then load q1+q2+q3 — the next
    sweep must start at q2 (after the last serviced queue), giving
    [2, 3, 1], not restart at q1 giving [1, 2, 3]."""
    tb = _rig()
    ctrl = tb.ssd.controller
    _put(tb, 1)
    assert ctrl.process_all() == 1
    assert list(ctrl.service_log) == [1]
    for qid in (1, 2, 3):
        _put(tb, qid, offset=qid * 4096)
    ctrl.process_all()
    assert list(ctrl.service_log) == [1, 2, 3, 1]


def test_no_starvation_under_sustained_low_qid_load():
    """Keep q1 permanently loaded; q2 and q3 must still be serviced
    once per sweep instead of starving behind q1."""
    tb = _rig()
    ctrl = tb.ssd.controller
    for round_no in range(4):
        for qid in (1, 2, 3):
            _put(tb, qid, offset=(round_no * 3 + qid) * 4096)
        # keep q1 looking "always busy": one extra command every round
        _put(tb, 1, offset=(100 + round_no) * 4096)
    ctrl.process_all()
    log = list(ctrl.service_log)
    # q1 holds 8 commands, q2/q3 hold 4 each: fair rotation interleaves
    # all three until q2/q3 drain, then finishes q1's surplus — it never
    # front-loads q1's backlog.
    assert log[:12] == [1, 2, 3] * 4
    assert log[12:] == [1] * 4


def test_single_queue_service_order_is_fifo():
    tb = _rig(queues=1)
    ctrl = tb.ssd.controller
    for i in range(3):
        _put(tb, 1, offset=i * 4096)
    ctrl.process_all()
    assert list(ctrl.service_log) == [1, 1, 1]


def test_fairness_starts_at_lowest_qid_on_fresh_rig():
    """First sweep on an idle controller still begins at the first
    created queue — the fix only changes *resumption*, not the start."""
    tb = _rig()
    ctrl = tb.ssd.controller
    for qid in (1, 2, 3):
        _put(tb, qid, offset=qid * 4096)
    ctrl.process_all()
    assert list(ctrl.service_log) == [1, 2, 3]
