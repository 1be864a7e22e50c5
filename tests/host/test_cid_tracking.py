"""CID lifecycle at QD > 1 (ISSUE 2, satellite 2).

``_alloc_cid`` must never hand out a CID that is still in flight — a
reused CID makes two outstanding commands indistinguishable in the CQ —
and must raise a clear error when the 16-bit space is exhausted rather
than silently aliasing.
"""

import pytest

from repro.host.driver import DriverError
from repro.nvme.command import NvmeCommand
from repro.nvme.constants import PAGE_SIZE, IoOpcode
from repro.sim.config import SimConfig
from repro.ssd.controller import MODE_QUEUE_LOCAL, MODE_TAGGED
from repro.testbed import make_block_testbed, make_engine_testbed


@pytest.fixture
def tb():
    return make_block_testbed(config=SimConfig(num_io_queues=2).nand_off())


def _submit(tb, qid, ring=False, offset=0):
    cmd = NvmeCommand(opcode=IoOpcode.WRITE, nsid=1, cdw10=offset)
    return tb.driver.submit("prp", cmd, b"\xcd" * 64, qid, ring=ring)


def test_outstanding_cids_are_distinct_and_tracked(tb):
    cids = [_submit(tb, 1, offset=i * 4096) for i in range(5)]
    assert len(set(cids)) == 5
    assert tb.driver.queue(1).live_cids == set(cids)
    assert tb.driver.inflight(1) == 5


def test_live_cid_is_skipped_on_wraparound(tb):
    res = tb.driver.queue(1)
    first = _submit(tb, 1)
    # Force the allocator to revisit the live CID: it must skip it.
    res.next_cid = first
    second = _submit(tb, 1, offset=4096)
    assert second != first
    assert res.live_cids == {first, second}


def test_cid_retires_on_completion(tb):
    qid = 1
    cid = _submit(tb, qid, ring=True)
    assert tb.driver.inflight(qid) == 1
    tb.ssd.controller.process_all()
    (cqe,) = tb.driver.reap(qid)
    assert cqe.cid == cid
    assert tb.driver.inflight(qid) == 0
    assert not tb.driver.queue(qid).pending_pages


def test_reap_retires_cids_out_of_order_safe(tb):
    qid = 1
    cids = [_submit(tb, qid, offset=i * 4096) for i in range(4)]
    tb.driver.kick(qid)
    tb.ssd.controller.process_all()
    reaped = tb.driver.reap(qid)
    assert sorted(c.cid for c in reaped) == sorted(cids)
    assert tb.driver.inflight(qid) == 0


def test_abandoned_attempt_retires_cid(tb):
    qid = 1
    cid = _submit(tb, qid)
    assert tb.driver.inflight(qid) == 1
    tb.driver.retire(qid, cid)
    assert tb.driver.inflight(qid) == 0
    assert not tb.driver.queue(qid).pending_pages
    tb.driver.retire(qid, cid)  # idempotent
    assert tb.driver.inflight(qid) == 0


def test_exhaustion_raises_clear_error(tb):
    res = tb.driver.queue(1)
    res.live_cids = set(range(0xFFFF))
    with pytest.raises(DriverError, match="CID space exhausted"):
        _submit(tb, 1)


def test_untracked_cid_for_suppressed_completion(tb):
    """BandSlim intermediate fragments produce no CQE by protocol, so
    their CIDs must not be marked live (nothing will ever retire them)."""
    cmd = NvmeCommand(opcode=IoOpcode.FLUSH, nsid=1)
    cid = tb.driver.submit_raw(cmd, 1, ring=False, expect_completion=False)
    assert cid not in tb.driver.queue(1).live_cids
    assert tb.driver.inflight(1) == 0


def test_per_queue_cid_spaces_are_independent(tb):
    a = _submit(tb, 1)
    b = _submit(tb, 2)
    assert tb.driver.inflight(1) == 1
    assert tb.driver.inflight(2) == 1
    tb.driver.retire(1, a)
    assert tb.driver.inflight(2) == 1
    tb.driver.retire(2, b)


@pytest.mark.parametrize("word", ["cdw10", "cdw11"])
@pytest.mark.parametrize("method", [
    "prp", "sgl", "bandslim", "byteexpress", "byteexpress-tagged"])
def test_command_word_wider_than_its_field_holds_nothing(method, word):
    """A submit whose CDW10 or CDW11 does not fit 32 bits is refused
    with ``DriverError`` after the codec took a CID: the CID, the pages
    staged for it and any payload id bound to it are released, and the
    next submit on the queue goes through."""
    tagged = method == "byteexpress-tagged"
    tb = make_engine_testbed(queues=1,
                             mode=MODE_TAGGED if tagged else MODE_QUEUE_LOCAL)
    engine = tb.make_engine(queues=1, qd=4)
    res = tb.driver.queue(engine.qids[0])
    pages = tb.driver.memory.mapped_pages
    # The tagged rig takes the tagged codec for byteexpress writes.
    submit_as = "byteexpress" if tagged else method
    # (BandSlim refuses any CDW11 first: no fragment carries it.)
    with pytest.raises(DriverError, match="does not fit|CDW11"):
        engine.submit(b"x" * 100, method=submit_as, **{word: 1 << 32})
    assert not res.live_cids
    assert not res.payload_ids
    assert not res.pending_pages
    assert tb.driver.memory.mapped_pages == pages
    fut = engine.submit(b"y" * 100, method=submit_as, cdw10=PAGE_SIZE)
    engine.drain()
    assert fut.ok and fut.method_used == method
    assert tb.personality.read_back(PAGE_SIZE, 100) == b"y" * 100
    assert not res.live_cids


def test_raw_submit_of_an_unencodable_command_retires_its_cid(tb):
    """``submit_raw`` takes the same refusal: the CID it allocated is
    retired, not left live."""
    cmd = NvmeCommand(opcode=IoOpcode.FLUSH, nsid=1, cdw10=1 << 32)
    with pytest.raises(DriverError, match="does not fit"):
        tb.driver.submit_raw(cmd, 1, ring=False)
    assert not tb.driver.queue(1).live_cids
    assert tb.driver.queue(1).sq.tail == 0
