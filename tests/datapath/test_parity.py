"""Datapath parity: generic ``submit()`` vs the transfer objects.

Every listed method must round-trip payloads at the boundary sizes
(1 B … 4 KiB) through the codec-driven generic ``driver.submit()`` and
through its transfer object; the read paths must work via the device
decoders; and a codec method's transfer object (one ``passthru`` per
write) must put *identical* traffic on the wire as the generic path —
both end in the same codec, so any divergence means a second encoder
crept back in.
"""

import pytest

from repro import datapath
from repro.datapath import names
from repro.engine.engine import engine_methods
from repro.host.driver import DriverError
from repro.nvme.command import NvmeCommand
from repro.nvme.constants import PAGE_SIZE, IoOpcode
from repro.nvme.passthrough import PassthruRequest
from repro.ssd.context import MODE_QUEUE_LOCAL, MODE_TAGGED
from repro.testbed import make_block_testbed, make_engine_testbed

#: Boundary sizes: 1 B, chunk edges (63/64/65), a mid size, page edges.
BOUNDARY_SIZES = (1, 63, 64, 65, 256, 512, 4095, 4096)

#: Methods whose host codec drives the generic submit path.
CODEC_METHODS = tuple(
    spec.name for spec in datapath.SPECS if spec.host_codec is not None)

#: Methods with no codec (orchestrated in repro.transfer).
ORCHESTRATED_METHODS = tuple(
    spec.name for spec in datapath.SPECS if spec.host_codec is None)

#: Every method has a benchmark-facing transfer object.
TRANSFER_METHODS = datapath.method_names()


def _payload(i: int, size: int) -> bytes:
    return bytes((i * 13 + j) & 0xFF for j in range(size))


def _tagged(method: str) -> bool:
    return datapath.resolve(method).caps.tag_reassembly


def _testbed_for(method: str):
    if not _tagged(method):
        return make_block_testbed(include_mmio=True)
    return make_block_testbed(mode=MODE_TAGGED, include_mmio=False)


# ------------------------------------------------- generic round-trips


@pytest.mark.parametrize("method", CODEC_METHODS)
def test_codec_methods_roundtrip_boundary_sizes(method):
    tb = _testbed_for(method)
    spec = datapath.resolve(method)
    for i, size in enumerate(BOUNDARY_SIZES):
        payload = _payload(i, size)
        offset = i * 2 * PAGE_SIZE
        cmd = NvmeCommand(opcode=IoOpcode.WRITE, nsid=1,
                          cdw10=offset & 0xFFFFFFFF)
        kwargs = {"payload_id": i} if spec.caps.tag_reassembly else {}
        tb.driver.submit(method, cmd, payload, qid=1, **kwargs)
        tb.ssd.controller.process_all()
        (cqe,) = tb.driver.reap(1)
        assert cqe.ok, (method, size)
        assert tb.personality.read_back(offset, size) == payload, \
            (method, size)


@pytest.mark.parametrize("method", CODEC_METHODS)
def test_unrung_private_buffer_writes_land_their_own_payloads(method):
    """QD>1: several writes staged before one doorbell must each DMA
    their own payload.  A codec that staged every write into the queue's
    shared scratch page would deliver the last payload four times."""
    tb = _testbed_for(method)
    offsets = [i * PAGE_SIZE for i in range(4)]
    for i, offset in enumerate(offsets):
        cmd = NvmeCommand(opcode=IoOpcode.WRITE, nsid=1, cdw10=offset)
        tb.driver.submit(method, cmd, _payload(i, 96), qid=1, ring=False)
    tb.driver.kick(1)
    tb.ssd.controller.process_all()
    assert all(cqe.ok for cqe in tb.driver.reap(1))
    for i, offset in enumerate(offsets):
        assert tb.personality.read_back(offset, 96) == _payload(i, 96), \
            (method, i)


@pytest.mark.parametrize("method", TRANSFER_METHODS)
def test_orchestrated_methods_roundtrip_boundary_sizes(method):
    """Every method round-trips through its transfer object (the
    ``make_methods`` built it): a passthrough for codec methods, the
    orchestration layer for the rest."""
    tb = _testbed_for(method)
    # The BAR byte window has no LBA addressing (its commit command
    # carries only a length), so bar_window writes all land at offset 0.
    addressable = not datapath.resolve(method).caps.bar_window
    for i, size in enumerate(BOUNDARY_SIZES):
        payload = _payload(i, size)
        offset = i * 2 * PAGE_SIZE if addressable else 0
        stats = tb.method(method).write(payload, cdw10=offset & 0xFFFFFFFF)
        assert stats.ok, (method, size)
        assert tb.personality.read_back(offset, size) == payload, \
            (method, size)


@pytest.mark.parametrize("method", ORCHESTRATED_METHODS)
def test_codecless_methods_refuse_generic_submit(method):
    tb = _testbed_for(method)
    cmd = NvmeCommand(opcode=IoOpcode.WRITE, nsid=1)
    with pytest.raises(DriverError):
        tb.driver.submit(method, cmd, b"x" * 64, qid=1)


def test_generic_submit_rejects_unknown_method():
    tb = make_block_testbed(include_mmio=False)
    cmd = NvmeCommand(opcode=IoOpcode.WRITE, nsid=1)
    with pytest.raises(DriverError):
        tb.driver.submit("warp-drive", cmd, b"x", qid=1)


def test_generic_submit_accepts_spec_objects():
    tb = make_block_testbed(include_mmio=False)
    cmd = NvmeCommand(opcode=IoOpcode.WRITE, nsid=1, cdw10=0)
    tb.driver.submit(datapath.resolve(names.PRP), cmd, b"spec!" * 8, qid=1)
    tb.ssd.controller.process_all()
    (cqe,) = tb.driver.reap(1)
    assert cqe.ok
    assert tb.personality.read_back(0, 40) == b"spec!" * 8


# -------------------------------------------------- decoder read paths


@pytest.mark.parametrize("write_method", (names.PRP, names.SGL,
                                          names.BYTEEXPRESS))
def test_read_back_through_prp_decoder(write_method):
    """Writes land via any codec; the PRP decoder pushes them back."""
    tb = make_block_testbed(include_mmio=False)
    payload = _payload(3, PAGE_SIZE)
    tb.driver.submit(write_method,
                     NvmeCommand(opcode=IoOpcode.WRITE, nsid=1, cdw10=0),
                     payload, qid=1)
    tb.ssd.controller.process_all()
    (cqe,) = tb.driver.reap(1)
    assert cqe.ok
    res = tb.driver.passthru(
        PassthruRequest(opcode=IoOpcode.READ, read_len=PAGE_SIZE, cdw10=0))
    assert res.ok
    assert res.data == payload


def test_read_back_through_sgl_decoder():
    """The SGL decoder's push path (bit-bucket read, §5)."""
    tb = make_block_testbed(include_mmio=False)
    payload = _payload(5, PAGE_SIZE)
    tb.driver.submit(names.PRP,
                     NvmeCommand(opcode=IoOpcode.WRITE, nsid=1, cdw10=0),
                     payload, qid=1)
    tb.ssd.controller.process_all()
    (cqe,) = tb.driver.reap(1)
    assert cqe.ok
    res = tb.driver.passthru(
        PassthruRequest(opcode=IoOpcode.READ, read_len=64, cdw10=0),
        method=names.SGL)
    assert res.ok and res.data == payload[:64]


# ------------------------------------- transfer object vs generic submit


def _run_transfer(method: str, tb):
    for i, size in enumerate(BOUNDARY_SIZES):
        stats = tb.method(method).write(
            _payload(i, size), cdw10=(i * 2 * PAGE_SIZE) & 0xFFFFFFFF)
        assert stats.ok


def _run_generic(method: str, tb):
    for i, size in enumerate(BOUNDARY_SIZES):
        payload = _payload(i, size)
        cmd = NvmeCommand(opcode=IoOpcode.WRITE, nsid=1,
                          cdw10=(i * 2 * PAGE_SIZE) & 0xFFFFFFFF)
        tb.driver.submit(method, cmd, payload, qid=1)
        tb.ssd.controller.process_all()
        (cqe,) = tb.driver.reap(1)
        assert cqe.ok


def _fingerprint(tb):
    counter = tb.traffic
    return {
        "total_bytes": counter.total_bytes,
        "tlp_breakdown": counter.tlp_breakdown(),
        "byte_breakdown": counter.breakdown(),
    }


@pytest.mark.parametrize("method", CODEC_METHODS)
def test_transfer_writes_match_generic_submit_wire_traffic(method):
    tb_transfer = _testbed_for(method)
    tb_generic = _testbed_for(method)
    _run_transfer(method, tb_transfer)
    _run_generic(method, tb_generic)
    assert _fingerprint(tb_transfer) == _fingerprint(tb_generic)
    # The clocks differ by exactly the passthrough ioctl, once per write.
    passthrough_ns = tb_transfer.ssd.config.timing.passthrough_ns
    assert tb_transfer.clock.now == pytest.approx(
        tb_generic.clock.now + len(BOUNDARY_SIZES) * passthrough_ns)
    for i, size in enumerate(BOUNDARY_SIZES):
        offset = i * 2 * PAGE_SIZE
        assert (tb_transfer.personality.read_back(offset, size)
                == tb_generic.personality.read_back(offset, size))


# ------------------------------------------------ engine vs passthrough


@pytest.mark.parametrize("method", engine_methods())
def test_engine_and_passthru_writes_land_identical_bytes(method):
    """Both front doors end in the method's host codec, so a fault-free
    synchronous write and an engine write of the same payload leave the
    same bytes on the device.  The tagged method runs on a tagged rig,
    the only controller mode that can reassemble it."""
    mode = MODE_TAGGED if _tagged(method) else MODE_QUEUE_LOCAL
    sync_tb = make_engine_testbed(queues=2, mode=mode)
    engine_tb = make_engine_testbed(queues=2, mode=mode)
    engine = engine_tb.make_engine(qd=4)
    futures = []
    for i, size in enumerate(BOUNDARY_SIZES):
        payload = _payload(i, size)
        offset = i * 2 * PAGE_SIZE
        res = sync_tb.driver.passthru(
            PassthruRequest(opcode=IoOpcode.WRITE, data=payload,
                            cdw10=offset), method=method)
        assert res.ok, (method, size)
        futures.append(engine.submit(payload, method=method, cdw10=offset))
    engine.drain()
    assert all(f.ok for f in futures)
    for i, size in enumerate(BOUNDARY_SIZES):
        offset = i * 2 * PAGE_SIZE
        landed = sync_tb.personality.read_back(offset, size)
        assert landed == _payload(i, size), (method, size)
        assert engine_tb.personality.read_back(offset, size) == landed


# ------------------------------------------- tagged codec, wrong controller


@pytest.mark.parametrize("front_door", ("passthru", "engine"))
def test_tagged_write_on_queue_local_controller_is_refused(front_door):
    """A queue-local controller reads tagged chunks as raw payload, so
    the write would complete SUCCESS with the 8-byte tag header stored
    in place of the data.  The codec refuses it before pushing a slot."""
    tb = make_engine_testbed(queues=1)
    sq = tb.driver.queue(1).sq
    tail = sq.tail
    payload = b"\xab" * 64
    with pytest.raises(DriverError, match="tagged mode"):
        if front_door == "passthru":
            tb.driver.passthru(
                PassthruRequest(opcode=IoOpcode.WRITE, data=payload),
                method=names.BYTEEXPRESS_TAGGED)
        else:
            tb.make_engine(qd=4).submit(payload,
                                        method=names.BYTEEXPRESS_TAGGED)
    assert sq.tail == tail
    assert tb.personality.read_back(0, 64) == bytes(64)
