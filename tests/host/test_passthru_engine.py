"""Synchronous passthrough as a QD-1 engine submission.

``NvmeDriver.passthru`` submits through a one-queue ``IoEngine`` at QD 1
and drains it, so a completion is matched to its command by (qid, cid):
a delayed CQE of an abandoned attempt is stale and can never acknowledge
a later command.
"""

import pytest

from repro.engine.engine import engine_methods
from repro.faults import DELAY_CQE, DROP_DOORBELL, FaultPlan
from repro.host.driver import CommandTimeoutError, DriverError
from repro.kvssd import KVStore
from repro.kvssd.commands import key_field_words
from repro.nvme.constants import IoOpcode, KvOpcode
from repro.nvme.passthrough import PassthruRequest
from repro.testbed import make_block_testbed, make_kv_testbed


def _wreq(payload: bytes, offset: int = 0) -> PassthruRequest:
    return PassthruRequest(opcode=IoOpcode.WRITE, data=payload,
                           cdw10=offset & 0xFFFFFFFF, cdw11=offset >> 32)


def test_every_acked_write_is_durable_under_a_uniform_fault_plan():
    """400 QD-1 ByteExpress writes under a 5 % plan on every fault kind:
    every write passthru acknowledges reads back.  A loop that took the
    CQE at the CQ head, whatever its CID, acked writes off an earlier
    command's delayed completion and lost 11 of them here."""
    tb = make_block_testbed(fault_plan=FaultPlan.uniform(0.05, seed=0xFA017))
    acked = []
    for i in range(400):
        payload = bytes([i & 0xFF, (i >> 8) & 0xFF]) * 128
        try:
            res = tb.driver.passthru(_wreq(payload, offset=i * 4096),
                                     method="byteexpress")
        except CommandTimeoutError:
            continue
        if res.ok:
            acked.append((i * 4096, payload))
    assert tb.ssd.faults.injected[DELAY_CQE] > 0
    lost = [off for off, payload in acked
            if tb.personality.read_back(off, len(payload)) != payload]
    assert lost == []
    assert tb.driver.inflight(1) == 0


def test_an_abandoned_attempts_cqe_is_stale_not_the_next_commands_ack():
    """The first write's doorbell and its re-ring are both lost, so the
    attempt times out and is resubmitted; the retry's doorbell publishes
    both SQEs.  The abandoned attempt's CQE is stale, and the second
    write is acked by its own CQE, after it ran."""
    probe = make_block_testbed(
        fault_plan=FaultPlan.scheduled({DROP_DOORBELL: [10 ** 9]}))
    first_io = probe.ssd.faults.opportunities[DROP_DOORBELL]
    tb = make_block_testbed(fault_plan=FaultPlan.scheduled(
        {DROP_DOORBELL: [first_io, first_io + 1]}))
    first = tb.driver.passthru(_wreq(b"\xA1" * 64), method="byteexpress")
    second = tb.driver.passthru(_wreq(b"\xB2" * 64, offset=4096),
                                method="byteexpress")
    assert first.ok and second.ok
    assert tb.personality.read_back(0, 64) == b"\xA1" * 64
    assert tb.personality.read_back(4096, 64) == b"\xB2" * 64
    assert tb.driver.timeouts == 1 and tb.driver.retries == 1
    assert tb.driver._engines[1].stats.stale_completions == 1
    assert tb.driver.inflight(1) == 0


def test_one_engine_per_queue_dropped_with_the_queue():
    tb = make_block_testbed()
    drv = tb.driver
    qid = drv.create_io_queue_pair()
    assert drv.passthru(_wreq(b"q" * 64), qid=qid).ok
    engine = drv._engines[qid]
    assert engine.qids == [qid] and engine.qd == 1
    assert drv.passthru(_wreq(b"r" * 64, offset=4096), qid=qid).ok
    assert drv._engines[qid] is engine
    drv.delete_io_queue_pair(qid)
    assert qid not in drv._engines
    assert drv.create_io_queue_pair(qid) == qid
    assert drv.passthru(_wreq(b"s" * 64), qid=qid).ok
    assert drv._engines[qid] is not engine


def test_block_read_returns_the_requested_bytes():
    tb = make_block_testbed()
    payload = bytes(range(200))
    assert tb.driver.passthru(_wreq(payload, offset=8192)).ok
    res = tb.driver.passthru(PassthruRequest(
        opcode=IoOpcode.READ, read_len=200, cdw10=8192))
    assert res.ok
    assert res.result == tb.ssd.config.lba_bytes  # one padded block
    assert res.data == payload


def test_kv_read_data_is_the_value_not_the_whole_buffer():
    tb = make_kv_testbed()
    KVStore(tb.driver, tb.method("byteexpress")).put(b"key", b"v" * 300)
    mptr, cdw10, cdw11, cdw14 = key_field_words(b"key")
    res = tb.driver.passthru(PassthruRequest(
        opcode=KvOpcode.RETRIEVE, read_len=4096, mptr=mptr, cdw10=cdw10,
        cdw11=cdw11, cdw14=cdw14))
    assert res.ok and res.result == 300
    assert res.data == b"v" * 300


def test_unknown_and_codecless_methods_are_driver_errors():
    tb = make_block_testbed()
    with pytest.raises(DriverError):
        tb.driver.passthru(_wreq(b"x" * 64), method="no-such-method")
    with pytest.raises(DriverError):
        tb.driver.passthru(_wreq(b"x" * 64), method="mmio")


@pytest.mark.parametrize("method", engine_methods())
def test_an_empty_write_is_a_driver_error(method):
    """passthru refuses an empty write with the driver's error type, as
    ``driver.submit`` does, whichever method (and its transfer object)
    carries it."""
    tb = make_block_testbed()
    with pytest.raises(DriverError):
        tb.driver.passthru(_wreq(b""), method=method)
    if method in tb.methods:
        with pytest.raises(DriverError):
            tb.method(method).write(b"")
