"""Controller firmware: dispatch, round-robin, ByteExpress hooks,
tagged mode, defensive firmware, completion plumbing."""

import pytest

from repro.nvme.command import NvmeCommand
from repro.nvme.constants import IoOpcode, StatusCode
from repro.sim.config import SimConfig
from repro.ssd.controller import CommandContext, MODE_TAGGED
from repro.ssd.device import OpenSsd
from repro.testbed import make_block_testbed


@pytest.fixture
def tb():
    return make_block_testbed()


def test_unknown_opcode_fails_cleanly(tb):
    tb.driver.submit_raw(NvmeCommand(opcode=0x7F), qid=1)
    tb.ssd.controller.process_all()
    (cqe,) = tb.driver.reap(1)
    assert cqe.status == StatusCode.INVALID_OPCODE


def test_reserved_psdt_write_fails_with_data_transfer_error(tb, payload64):
    """A write whose flags carry the reserved PSDT 3 completes with an
    error; it does not raise out of the firmware loop, and the queue
    goes on serving the next command."""
    tb.driver.submit_raw(NvmeCommand(
        opcode=IoOpcode.WRITE, flags=0xC0, nsid=1, cdw12=64,
        prp1=tb.driver.memory.alloc_page()), qid=1)
    tb.ssd.controller.process_all()
    (cqe,) = tb.driver.reap(1)
    assert cqe.status == StatusCode.DATA_TRANSFER_ERROR
    tb.driver.submit("prp", NvmeCommand(opcode=IoOpcode.WRITE), payload64,
                     qid=1)
    tb.ssd.controller.process_all()
    (cqe,) = tb.driver.reap(1)
    assert cqe.ok


def test_commands_processed_counter(tb, payload64):
    before = tb.ssd.controller.commands_processed
    tb.driver.submit("prp", NvmeCommand(opcode=IoOpcode.WRITE),
                               payload64, qid=1)
    tb.ssd.controller.process_all()
    assert len(tb.driver.reap(1)) == 1
    assert tb.ssd.controller.commands_processed == before + 1


def test_inline_payload_counter(tb, payload64):
    tb.driver.submit("byteexpress", NvmeCommand(opcode=IoOpcode.WRITE),
                                  payload64, qid=1)
    tb.ssd.controller.process_all()
    assert len(tb.driver.reap(1)) == 1
    assert tb.ssd.controller.inline_payloads == 1


def test_round_robin_serves_all_queues(tb, payload64):
    for qid in tb.driver.io_qids:
        tb.driver.submit("prp", NvmeCommand(opcode=IoOpcode.WRITE),
                                   payload64, qid=qid)
    tb.ssd.controller.process_all()
    for qid in tb.driver.io_qids:
        assert tb.driver.queue(qid).cq.poll() is not None


def test_byteexpress_disabled_firmware_rejects_inline(tb, payload64):
    """Defensive stock firmware: refuse rather than misparse chunks."""
    tb.ssd.controller.byteexpress_enabled = False
    tb.driver.submit("byteexpress", NvmeCommand(opcode=IoOpcode.WRITE),
                                  payload64, qid=1)
    tb.ssd.controller.process_all()
    (cqe,) = tb.driver.reap(1)
    assert cqe.status == StatusCode.INVALID_FIELD
    assert tb.ssd.controller.fetch_errors == 1
    # The queue is not wedged: a normal command still works.
    tb.driver.submit("prp", NvmeCommand(opcode=IoOpcode.WRITE),
                               payload64, qid=1)
    tb.ssd.controller.process_all()
    (cqe,) = tb.driver.reap(1)
    assert cqe.ok


def test_malformed_inline_length_rejected(tb):
    tb.unmonitor()  # the forged inline length is the test's subject
    cmd = NvmeCommand(opcode=IoOpcode.WRITE)
    cmd.cdw2 = 1 << 30  # absurd inline length, no chunks inserted
    tb.driver.submit_raw(cmd, qid=1)
    tb.ssd.controller.process_all()
    (cqe,) = tb.driver.reap(1)
    assert cqe.status == StatusCode.INVALID_FIELD


def test_inline_chunks_beyond_doorbell_fail_command(tb):
    """Advertised chunk count past the doorbell is a protocol violation."""
    tb.unmonitor()  # the forged torn sequence is the test's subject
    res = tb.driver.queue(1)
    cmd = NvmeCommand(opcode=IoOpcode.WRITE, cid=1)
    cmd.set_inline_length(64 * 5)  # claims 5 chunks
    with res.sq.lock:
        res.sq.push_raw(cmd.pack())  # but inserts none
        tb.driver._ring_sq_doorbell(res)
    tb.ssd.controller.process_all()
    (cqe,) = tb.driver.reap(1)
    assert cqe.status == StatusCode.INVALID_FIELD


def test_dispatch_local_runs_handler(tb):
    ctx = CommandContext(cmd=NvmeCommand(opcode=IoOpcode.WRITE, cdw10=0),
                         qid=1, data=b"direct", transport="test")
    result = tb.ssd.controller.dispatch_local(ctx)
    assert result.status == StatusCode.SUCCESS
    assert tb.personality.read_back(0, 6) == b"direct"


def test_dispatch_local_unknown_opcode(tb):
    ctx = CommandContext(cmd=NvmeCommand(opcode=0x55), qid=1)
    assert tb.ssd.controller.dispatch_local(ctx).status == \
        StatusCode.INVALID_OPCODE


def test_registering_duplicate_queue_rejected(tb):
    res = tb.driver.queue(1)
    ctrl = tb.ssd.controller
    with pytest.raises(ValueError):
        ctrl.create_cq(1, res.cq.base_addr, res.cq.depth)
    with pytest.raises(ValueError):
        ctrl.create_sq(1, res.sq.base_addr, res.sq.depth, cq_qid=1)


def test_invalid_mode_rejected():
    ssd = OpenSsd(SimConfig().nand_off())
    with pytest.raises(ValueError):
        type(ssd.controller)(ssd.config, ssd.clock, ssd.link,
                             ssd.host_memory, mode="bogus")


class TestTaggedMode:
    def _tb(self):
        return make_block_testbed(mode=MODE_TAGGED)

    def test_tagged_roundtrip(self):
        tb = self._tb()
        payload = bytes(i % 251 for i in range(500))
        tb.driver.submit("byteexpress-tagged",
            NvmeCommand(opcode=IoOpcode.WRITE), payload, qid=1, payload_id=1)
        tb.ssd.controller.process_all()
        (cqe,) = tb.driver.reap(1)
        assert cqe.ok
        assert tb.personality.read_back(0, 500) == payload

    def test_interleaved_across_queues(self):
        """Two tagged payloads on two SQs; the controller interleaves
        chunk fetches round-robin and both reassemble correctly."""
        tb = self._tb()
        a = b"A" * 300
        b = b"B" * 300
        tb.driver.submit("byteexpress-tagged",
            NvmeCommand(opcode=IoOpcode.WRITE, cdw10=0), a, qid=1,
            payload_id=1)
        tb.driver.submit("byteexpress-tagged",
            NvmeCommand(opcode=IoOpcode.WRITE, cdw10=4096), b, qid=2,
            payload_id=2)
        tb.ssd.controller.process_all()
        assert tb.driver.queue(1).cq.poll().ok
        assert tb.driver.queue(2).cq.poll().ok
        assert tb.personality.read_back(0, 300) == a
        assert tb.personality.read_back(4096, 300) == b

    def test_duplicate_payload_id_inflight(self):
        tb = self._tb()
        tb.driver.submit("byteexpress-tagged",
            NvmeCommand(opcode=IoOpcode.WRITE), b"x" * 100, qid=1,
            payload_id=7)
        tb.ssd.controller.process_all()
        (cqe,) = tb.driver.reap(1)
        assert cqe.ok
        # Reuse after completion is fine.
        tb.driver.submit("byteexpress-tagged",
            NvmeCommand(opcode=IoOpcode.WRITE), b"y" * 100, qid=1,
            payload_id=7)
        tb.ssd.controller.process_all()
        (cqe,) = tb.driver.reap(1)
        assert cqe.ok
