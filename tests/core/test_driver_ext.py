"""Host-side inline submission (the driver's ByteExpress change, carried
by ``InlineWriteCodec``): consecutive slots, lock discipline,
all-or-nothing space check, Table-1 submit costs."""

import pytest

from repro.datapath.codecs import INLINE_WRITE_CODEC, PRP_WRITE_CODEC
from repro.host.driver import DriverError
from repro.nvme.command import NvmeCommand
from repro.nvme.constants import SQE_SIZE
from repro.nvme.queues import QueueFullError
from repro.sim.config import SimConfig
from repro.testbed import make_block_testbed


def _rig(depth=16):
    tb = make_block_testbed(config=SimConfig(sq_depth=depth).nand_off(),
                            include_mmio=False)
    tb.clock.reset_spans()
    return tb, tb.driver.queue(1).sq


def _encode(tb, payload, codec=INLINE_WRITE_CODEC):
    return codec.encode(tb.driver, NvmeCommand(opcode=1), payload, 1,
                        ring=False)


def _submit_ns(tb):
    return tb.clock.span_totals()["drv.sq_submit"]


@pytest.mark.parametrize("size", [1, 63, 64, 65, 130])
def test_command_then_chunks_consecutive(size):
    tb, sq = _rig()
    payload = bytes(i % 251 for i in range(size))
    _encode(tb, payload)
    chunks = -(-size // SQE_SIZE)
    assert sq.tail == 1 + chunks  # cmd in slot 0, chunks right behind it
    # Chunk bytes really landed in the following slots, the last one
    # zero-padded to a full entry.
    padded = payload + b"\x00" * (chunks * SQE_SIZE - size)
    for i in range(chunks):
        assert (sq.memory.read(sq.slot_addr(1 + i), SQE_SIZE)
                == padded[i * SQE_SIZE:(i + 1) * SQE_SIZE])


def test_inline_length_encoded():
    tb, sq = _rig()
    _encode(tb, b"x" * 100)
    cmd = NvmeCommand.unpack(sq.memory.read(sq.slot_addr(0), SQE_SIZE))
    assert cmd.inline_length == 100


def test_submit_cost_matches_table1():
    """Table 1 driver column: 60 ns base + ~30 ns per chunk."""
    timing = SimConfig().timing
    for size, chunks in ((64, 1), (128, 2), (256, 4)):
        tb, _sq = _rig()
        _encode(tb, b"x" * size)
        assert _submit_ns(tb) == pytest.approx(
            timing.sqe_submit_ns + chunks * timing.chunk_submit_ns)


def test_queue_full_is_all_or_nothing():
    tb, sq = _rig(depth=4)  # 3 usable slots
    tail_before = sq.tail
    with pytest.raises(QueueFullError):
        _encode(tb, b"x" * 256)
    assert sq.tail == tail_before  # nothing partially inserted


def test_empty_payload_rejected():
    tb, sq = _rig()
    with pytest.raises(DriverError):
        _encode(tb, b"")
    assert sq.tail == 0


def test_requires_lock():
    """Every entry lands while the codec holds the SQ lock — the lock
    is what keeps the chunks consecutive after their command."""
    tb, sq = _rig()
    held = []
    push = sq.push_raw

    def recording_push(entry):
        held.append(sq.lock.held)
        return push(entry)

    sq.push_raw = recording_push
    _encode(tb, b"x" * 200)
    assert held == [True] * 5  # command + 4 chunks
    assert not sq.lock.held  # released afterwards


def test_submit_plain_cost():
    tb, sq = _rig()
    _encode(tb, b"x" * 64, codec=PRP_WRITE_CODEC)
    assert _submit_ns(tb) == pytest.approx(SimConfig().timing.sqe_submit_ns)
    assert sq.tail == 1  # a plain command occupies one slot
