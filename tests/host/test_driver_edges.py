"""Remaining driver edge cases."""

import pytest

from repro.nvme.command import NvmeCommand
from repro.nvme.constants import IoOpcode
from repro.sim.config import SimConfig
from repro.testbed import make_block_testbed


def test_reap_handles_back_to_back_completions():
    tb = make_block_testbed()
    for i in range(3):
        tb.driver.submit("byteexpress",
            NvmeCommand(opcode=IoOpcode.WRITE, cdw10=i * 4096),
            bytes([i]) * 64, qid=1)
    # One device drive posts all three completions; one reap harvests
    # them, and a second finds nothing without reprocessing.
    tb.ssd.controller.process_all()
    processed = tb.ssd.controller.commands_processed
    cqes = tb.driver.reap(1)
    assert [cqe.ok for cqe in cqes] == [True] * 3
    assert tb.driver.reap(1) == []
    assert tb.ssd.controller.commands_processed == processed


def test_scratch_boundary_exact_fit():
    from repro.nvme.passthrough import PassthruRequest

    tb = make_block_testbed()
    payload = b"e" * (64 * 1024)  # the largest microbench transfer
    res = tb.driver.passthru(PassthruRequest(opcode=IoOpcode.WRITE,
                                             data=payload, cdw10=0))
    assert res.ok
    assert tb.personality.read_back(0, len(payload)) == payload


def test_small_queue_depth_config_still_boots():
    cfg = SimConfig(sq_depth=8, cq_depth=8, num_io_queues=2).nand_off()
    tb = make_block_testbed(config=cfg)
    assert tb.driver.io_qids == [1, 2]
    assert tb.method("byteexpress").write(b"x" * 64).ok


def test_deep_inline_payload_respects_queue_capacity():
    """An inline payload needing more slots than a shallow SQ holds is
    rejected up-front by the space check."""
    from repro.nvme.queues import QueueFullError

    cfg = SimConfig(sq_depth=8).nand_off()
    tb = make_block_testbed(config=cfg)
    with pytest.raises(QueueFullError):
        tb.driver.submit("byteexpress", NvmeCommand(opcode=IoOpcode.WRITE),
                                      b"x" * (64 * 10), qid=1)


@pytest.mark.parametrize("method,mode", [("byteexpress", "queue_local"),
                                         ("byteexpress-tagged", "tagged")])
def test_inline_codecs_raise_the_same_type_on_a_full_sq(method, mode):
    """Both inline codecs report a full SQ as ``QueueFullError`` — one
    error type for one condition, whichever encoding is in use."""
    from repro.nvme.queues import QueueFullError

    cfg = SimConfig(sq_depth=8).nand_off()
    tb = make_block_testbed(config=cfg, mode=mode)
    with pytest.raises(QueueFullError):
        tb.driver.submit(method, NvmeCommand(opcode=IoOpcode.WRITE),
                         b"x" * (64 * 10), qid=1, payload_id=1)


def test_a_refused_inline_submit_holds_no_cid():
    """Every refusal of the inline codec (an empty payload, a full SQ, a
    reserved field already in use) happens before a CID is allocated, so
    the queue drains to no live CID and can still be deleted."""
    from repro.core.inline_command import InlineEncodingError
    from repro.host.driver import DriverError
    from repro.nvme.queues import QueueFullError

    cfg = SimConfig(sq_depth=8).nand_off()
    tb = make_block_testbed(config=cfg)
    drv = tb.driver
    drv.submit("byteexpress", NvmeCommand(opcode=IoOpcode.WRITE),
               b"x" * 200, qid=1)
    for cdw2, payload, error in [(0, b"", DriverError),
                                 (0, b"x" * 200, QueueFullError),
                                 (1, b"x" * 64, InlineEncodingError)]:
        with pytest.raises(error):
            drv.submit("byteexpress",
                       NvmeCommand(opcode=IoOpcode.WRITE, cdw2=cdw2),
                       payload, qid=1)
    assert drv.inflight(1) == 1
    tb.ssd.controller.process_all()
    assert [cqe.ok for cqe in drv.reap(1)] == [True]
    assert drv.inflight(1) == 0
    drv.delete_io_queue_pair(1)
