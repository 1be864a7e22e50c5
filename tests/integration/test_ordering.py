"""Ordering guarantees (paper §3.3.2, both challenges)."""

import pytest

from repro.nvme.command import NvmeCommand
from repro.nvme.constants import IoOpcode, SQE_SIZE
from repro.nvme.queues import LockNotHeldError
from repro.ssd.controller import MODE_TAGGED
from repro.testbed import make_block_testbed


def test_cmd_and_chunks_consecutive_in_sq():
    """Host half: lock held across CMD + chunk insertion ⇒ consecutive
    slots, no interleaving possible."""
    tb = make_block_testbed()
    res = tb.driver.queue(1)
    payload = bytes(range(200))
    tb.driver.submit("byteexpress", NvmeCommand(opcode=IoOpcode.WRITE),
                                  payload, qid=1, ring=False)
    # Slots 1..4 hold the chunks, in payload order.
    mem = tb.driver.memory
    raw = b"".join(mem.read(res.sq.slot_addr(i), SQE_SIZE) for i in (1, 2, 3, 4))
    assert raw[:200] == payload


def test_sq_write_without_lock_is_detected():
    tb = make_block_testbed()
    sq = tb.driver.queue(1).sq
    with pytest.raises(LockNotHeldError):
        sq.push_raw(b"\x00" * SQE_SIZE)


def test_lock_acquired_once_per_inline_submit():
    """The paper's point: ONE lock acquisition covers CMD + all chunks."""
    tb = make_block_testbed()
    sq = tb.driver.queue(1).sq
    before = sq.lock.acquisitions
    tb.driver.submit("byteexpress", NvmeCommand(opcode=IoOpcode.WRITE),
                                  b"x" * 1000, qid=1)
    assert sq.lock.acquisitions == before + 1


def test_queue_local_fetch_never_interleaves_payloads():
    """Device half: a ByteExpress command's chunks are consumed before the
    controller switches queues, so two concurrent inline writes to
    different SQs both arrive intact."""
    tb = make_block_testbed()
    a = b"A" * 300
    b = b"B" * 300
    tb.driver.submit("byteexpress", NvmeCommand(opcode=IoOpcode.WRITE, cdw10=0),
                                  a, qid=1)
    tb.driver.submit("byteexpress",
        NvmeCommand(opcode=IoOpcode.WRITE, cdw10=4096), b, qid=2)
    tb.ssd.controller.process_all()
    assert tb.personality.read_back(0, 300) == a
    assert tb.personality.read_back(4096, 300) == b


def test_back_to_back_inline_writes_same_queue():
    """Multiple inline commands queued before the device runs: each
    command's length field delimits its own chunks."""
    tb = make_block_testbed()
    payloads = [bytes([i]) * (50 + i * 64) for i in range(4)]
    for i, payload in enumerate(payloads):
        tb.driver.submit("byteexpress",
            NvmeCommand(opcode=IoOpcode.WRITE, cdw10=i * 8192), payload,
            qid=1)
    tb.ssd.controller.process_all()
    for i, payload in enumerate(payloads):
        assert tb.personality.read_back(i * 8192, len(payload)) == payload


def test_mixed_methods_interleaved_one_queue():
    """PRP, inline and BandSlim commands share a queue without corruption."""
    tb = make_block_testbed()
    tb.method("prp").write(b"P" * 100, cdw10=0)
    tb.method("byteexpress").write(b"B" * 100, cdw10=4096)
    tb.method("bandslim").write(b"S" * 100, cdw10=8192)
    assert tb.personality.read_back(0, 100) == b"P" * 100
    assert tb.personality.read_back(4096, 100) == b"B" * 100
    assert tb.personality.read_back(8192, 100) == b"S" * 100


def test_tagged_mode_many_payloads_across_queues():
    """§3.3.2 relaxation at scale: payloads across all queues reassemble."""
    tb = make_block_testbed(mode=MODE_TAGGED)
    expected = {}
    for i in range(12):
        qid = tb.driver.io_qids[i % len(tb.driver.io_qids)]
        payload = bytes([65 + i]) * (100 + 13 * i)
        tb.driver.submit("byteexpress-tagged",
            NvmeCommand(opcode=IoOpcode.WRITE, cdw10=i * 8192), payload,
            qid=qid, payload_id=i + 1)
        expected[i * 8192] = payload
    tb.ssd.controller.process_all()
    for offset, payload in expected.items():
        assert tb.personality.read_back(offset, len(payload)) == payload
