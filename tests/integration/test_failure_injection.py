"""Failure injection across the stack: every failure must surface as a
clean NVMe status, never corrupt unrelated state, and never wedge a queue."""

import pytest

from repro.nvme.command import NvmeCommand
from repro.nvme.constants import IoOpcode, StatusCode
from repro.nvme.passthrough import PassthruRequest
from repro.nvme.queues import QueueFullError
from repro.sim.config import SimConfig
from repro.testbed import make_block_testbed, make_kv_testbed


def test_sq_backpressure_on_inline_flood():
    """A payload needing more slots than the SQ has free must be refused
    up front, leaving the queue usable."""
    cfg = SimConfig(sq_depth=16).nand_off()
    tb = make_block_testbed(config=cfg)
    with pytest.raises(QueueFullError):
        tb.driver.submit("byteexpress", NvmeCommand(opcode=IoOpcode.WRITE),
                                      b"x" * (64 * 20), qid=1)
    # Queue still works afterwards.
    stats = tb.method("byteexpress").write(b"ok" * 10)
    assert stats.ok


def test_many_small_inline_ops_through_shallow_queue():
    """Slot recycling via CQE head reports keeps a 16-deep queue alive
    through hundreds of inline ops."""
    cfg = SimConfig(sq_depth=16).nand_off()
    tb = make_block_testbed(config=cfg)
    for i in range(300):
        assert tb.method("byteexpress").write(bytes([i % 256]) * 100).ok


def test_malformed_reserved_field_does_not_wedge_queue():
    # Forges a host-side protocol violation on purpose: drop the
    # REPRO_VERIFY monitor, which (correctly) flags it — the subject
    # here is the *device's* robustness against it.
    tb = make_block_testbed().unmonitor()
    bad = NvmeCommand(opcode=IoOpcode.WRITE)
    bad.cdw2 = 6400  # claims 100 chunks that were never inserted
    tb.driver.submit_raw(bad, qid=1)
    tb.ssd.controller.process_all()
    (cqe,) = tb.driver.reap(1)
    assert cqe.status == StatusCode.INVALID_FIELD
    assert tb.method("byteexpress").write(b"still alive").ok


def test_nand_program_failure_bubbles_to_host():
    tb = make_block_testbed(config=SimConfig())
    for die in range(tb.ssd.nand.geometry.dies):
        tb.ssd.nand.inject_program_failures(die, count=4)
    res = tb.driver.passthru(PassthruRequest(
        opcode=IoOpcode.WRITE, data=b"x" * 4096, cdw10=0))
    assert res.status == StatusCode.MEDIA_WRITE_FAULT


def test_kv_store_failure_on_nand_fault():
    tb = make_kv_testbed(memtable_entries=8)
    from repro.kvssd import KVStore, KvError

    store = KVStore(tb.driver, tb.method("byteexpress"))
    # Value-log segments flush on overflow; poison every die so the
    # flush-triggering put fails loudly.
    for die in range(tb.ssd.nand.geometry.dies):
        tb.ssd.nand.inject_program_failures(die, count=100)
    seg = tb.personality.vlog.segment_bytes
    big = seg // 2
    with pytest.raises(KvError):
        store.put(b"k1", b"v" * big)
        store.put(b"k2", b"v" * big)
        store.put(b"k3", b"v" * big)


def test_unknown_opcode_mid_stream():
    tb = make_block_testbed()
    tb.method("byteexpress").write(b"before", cdw10=0)
    tb.driver.submit_raw(NvmeCommand(opcode=0x66), qid=1)
    tb.ssd.controller.process_all()
    (cqe,) = tb.driver.reap(1)
    assert cqe.status == StatusCode.INVALID_OPCODE
    tb.method("byteexpress").write(b"after!", cdw10=4096)
    assert tb.personality.read_back(0, 6) == b"before"
    assert tb.personality.read_back(4096, 6) == b"after!"


def test_prp_pull_of_unmapped_memory_fails_cleanly():
    tb = make_block_testbed()
    cmd = NvmeCommand(opcode=IoOpcode.WRITE, prp1=0xBAD000, cdw12=64)
    res = tb.driver.queue(1)
    cmd.cid = 1
    with res.sq.lock:
        res.sq.push_raw(cmd.pack())
        tb.driver._ring_sq_doorbell(res)
    tb.ssd.controller.process_all()
    (cqe,) = tb.driver.reap(1)
    assert cqe.status == StatusCode.DATA_TRANSFER_ERROR


def test_device_survives_mixed_garbage_stream():
    """A hostile stream of malformed commands never crashes the firmware."""
    tb = make_block_testbed()
    garbage = [
        NvmeCommand(opcode=0xEE),                       # unknown opcode
        NvmeCommand(opcode=IoOpcode.WRITE),             # write, no data
        NvmeCommand(opcode=IoOpcode.READ),              # read, no length
    ]
    for cmd in garbage:
        tb.driver.submit_raw(cmd, qid=1)
        tb.ssd.controller.process_all()
        (cqe,) = tb.driver.reap(1)
        assert not cqe.ok
    assert tb.method("prp").write(b"recovered", cdw10=0).ok
