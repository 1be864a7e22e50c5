"""NVMe driver: submission paths, completion handling, passthrough."""

import pytest

from repro.host.driver import DriverError
from repro.nvme.command import NvmeCommand
from repro.nvme.constants import IoOpcode
from repro.nvme.passthrough import PassthruRequest
from repro.testbed import make_block_testbed


@pytest.fixture
def tb():
    return make_block_testbed()


def test_queue_pairs_created(tb):
    assert tb.driver.io_qids == [1, 2, 3, 4]


def test_unknown_queue_rejected(tb):
    with pytest.raises(DriverError):
        tb.driver.queue(99)


def test_prp_write_roundtrip(tb, payload64):
    cmd = NvmeCommand(opcode=IoOpcode.WRITE)
    tb.driver.submit("prp", cmd, payload64, qid=1)
    tb.ssd.controller.process_all()
    (cqe,) = tb.driver.reap(1)
    assert cqe.ok
    assert tb.personality.read_back(0, 64) == payload64


def test_prp_write_needs_payload(tb):
    with pytest.raises(DriverError):
        tb.driver.submit("prp", NvmeCommand(opcode=IoOpcode.WRITE), b"", qid=1)


def test_inline_write_roundtrip(tb, payload100):
    cmd = NvmeCommand(opcode=IoOpcode.WRITE)
    tb.driver.submit("byteexpress", cmd, payload100, qid=1)
    tb.ssd.controller.process_all()
    (cqe,) = tb.driver.reap(1)
    assert cqe.ok
    assert tb.personality.read_back(0, 100) == payload100


def test_cids_increment_and_wrap(tb):
    res = tb.driver.queue(1)
    res.next_cid = 0xFFFF
    cid1 = tb.driver.submit_raw(NvmeCommand(opcode=IoOpcode.FLUSH), qid=1)
    tb.ssd.controller.process_all()
    assert len(tb.driver.reap(1)) == 1
    cid2 = tb.driver.submit_raw(NvmeCommand(opcode=IoOpcode.FLUSH), qid=1)
    tb.ssd.controller.process_all()
    assert len(tb.driver.reap(1)) == 1
    assert (cid1, cid2) == (0xFFFF, 0)


def test_completion_updates_sq_head(tb, payload64):
    sq = tb.driver.queue(1).sq
    tb.driver.submit("prp", NvmeCommand(opcode=IoOpcode.WRITE), payload64, qid=1)
    tb.ssd.controller.process_all()
    assert len(tb.driver.reap(1)) == 1
    assert sq.head == sq.tail  # everything consumed


def test_oversized_payload_rejected(tb):
    mdts = tb.driver.identify.max_transfer_bytes
    with pytest.raises(DriverError):
        tb.driver.submit("prp", NvmeCommand(opcode=IoOpcode.WRITE),
                                   b"x" * (mdts + 1), qid=1)


def test_passthru_write_and_read_roundtrip(tb, payload64):
    w = tb.driver.passthru(PassthruRequest(opcode=IoOpcode.WRITE,
                                           data=payload64, cdw10=0))
    assert w.ok and w.latency_ns > 0 and w.pcie_bytes > 0
    r = tb.driver.passthru(PassthruRequest(opcode=IoOpcode.READ, read_len=64,
                                           cdw10=0))
    assert r.ok and r.data == payload64


def test_passthru_unknown_method(tb, payload64):
    with pytest.raises(DriverError):
        tb.driver.passthru(PassthruRequest(opcode=IoOpcode.WRITE,
                                           data=payload64), method="smoke")


def test_passthru_methods_agree_functionally(tb):
    blob = bytes(range(200))
    for i, method in enumerate(("prp", "sgl", "byteexpress")):
        offset = i * 4096
        res = tb.driver.passthru(
            PassthruRequest(opcode=IoOpcode.WRITE, data=blob, cdw10=offset),
            method=method)
        assert res.ok
        assert tb.personality.read_back(offset, len(blob)) == blob


def test_queues_are_independent(tb, payload64):
    tb.driver.submit("prp", NvmeCommand(opcode=IoOpcode.WRITE),
                               payload64, qid=1)
    tb.driver.submit("prp", NvmeCommand(opcode=IoOpcode.WRITE),
                               payload64, qid=2)
    tb.ssd.controller.process_all()
    for qid in (1, 2):
        (cqe,) = tb.driver.reap(qid)
        assert cqe.ok


def test_prp_list_pages_freed_after_completion(tb):
    """16 KB transfers allocate PRP list pages; they must be recycled."""
    before = tb.driver.memory.mapped_pages
    for _ in range(5):
        res = tb.driver.passthru(
            PassthruRequest(opcode=IoOpcode.WRITE, data=b"z" * 16384))
        assert res.ok
    assert tb.driver.memory.mapped_pages == before


def test_admin_qid_stays_off_the_io_surface(tb, payload64):
    req = PassthruRequest(opcode=IoOpcode.WRITE, data=payload64)
    with pytest.raises(DriverError):
        tb.driver.passthru(req, qid=0)
    with pytest.raises(DriverError):
        tb.driver.create_io_queue_pair(0)
    with pytest.raises(DriverError):
        tb.driver.delete_io_queue_pair(0)
    assert tb.driver.create_io_queue_pair() == 5
    assert tb.driver.io_qids == [1, 2, 3, 4, 5]


def test_no_io_queue_raises_driver_error(tb, payload64):
    from repro.csd.pushdown import CsdClient
    from repro.kvssd import KVStore

    for qid in tb.driver.io_qids:
        tb.driver.delete_io_queue_pair(qid)
    assert tb.driver.io_qids == []
    with pytest.raises(DriverError):
        tb.driver.passthru(PassthruRequest(opcode=IoOpcode.WRITE,
                                           data=payload64))
    with pytest.raises(DriverError):
        KVStore(tb.driver, tb.method("byteexpress"))
    with pytest.raises(DriverError):
        CsdClient(tb.driver, tb.method("prp"))
