"""NAND-off block store: each page keeps only the bytes written.

A page's extent runs from byte 0 to the highest byte ever written; every
read (``read_back``, a host READ, the LBA round-up) sees it padded with
zeros to the page, exactly as a padded 4 KiB page would read.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nvme.command import NvmeCommand
from repro.nvme.constants import PAGE_SIZE, IoOpcode, StatusCode
from repro.nvme.passthrough import PassthruRequest
from repro.sim.config import SimConfig
from repro.ssd.controller import CommandContext
from repro.testbed import make_block_testbed


def _write(tb, offset, data):
    res = tb.driver.passthru(PassthruRequest(
        opcode=IoOpcode.WRITE, data=data, cdw10=offset & 0xFFFFFFFF,
        cdw11=offset >> 32))
    assert res.ok


def _device_read(tb, offset, nbytes):
    """The device's READ data before the host trims it to *nbytes*."""
    result = tb.ssd.controller.dispatch_local(CommandContext(
        cmd=NvmeCommand(opcode=IoOpcode.READ, cdw10=offset, cdw13=nbytes),
        qid=1))
    assert result.status == StatusCode.SUCCESS
    return result.read_data


def test_first_write_at_an_in_page_offset_reads_leading_zeros(block_tb):
    blk = block_tb.personality
    _write(block_tb, PAGE_SIZE + 100, b"\xaa" * 20)
    assert blk.read_back(PAGE_SIZE, 120) == bytes(100) + b"\xaa" * 20
    assert blk.stored_bytes == 120


def test_write_straddling_a_page_boundary_splits_into_two_extents(block_tb):
    blk = block_tb.personality
    _write(block_tb, PAGE_SIZE - 10, bytes(range(1, 31)))
    assert blk.read_back(PAGE_SIZE - 10, 30) == bytes(range(1, 31))
    assert blk.read_back(0, PAGE_SIZE - 10) == bytes(PAGE_SIZE - 10)
    # The first page is full up to its end; the second holds 20 B.
    assert blk.stored_bytes == PAGE_SIZE + 20


def test_shorter_overwrite_keeps_the_old_tail(block_tb):
    blk = block_tb.personality
    _write(block_tb, 0, b"A" * 64)
    _write(block_tb, 0, b"B" * 16)
    assert blk.read_back(0, 64) == b"B" * 16 + b"A" * 48
    assert blk.stored_bytes == 64


def test_write_past_the_extent_zero_fills_the_gap(block_tb):
    blk = block_tb.personality
    _write(block_tb, 0, b"A" * 8)
    _write(block_tb, 32, b"B" * 8)
    assert blk.read_back(0, 48) == b"A" * 8 + bytes(24) + b"B" * 8 + bytes(8)
    assert blk.stored_bytes == 40


def test_read_past_the_extent_is_zero_padded(block_tb):
    blk = block_tb.personality
    _write(block_tb, 0, b"xyz")
    assert blk.read_back(0, PAGE_SIZE) == b"xyz" + bytes(PAGE_SIZE - 3)
    r = block_tb.driver.passthru(PassthruRequest(
        opcode=IoOpcode.READ, read_len=10, cdw10=0))
    assert r.ok and r.data == b"xyz" + bytes(7)


def test_read_rounded_up_to_the_lba_is_zero_padded():
    tb = make_block_testbed(config=SimConfig(lba_bytes=512).nand_off())
    _write(tb, PAGE_SIZE, b"\x5a" * 40)
    assert _device_read(tb, PAGE_SIZE, 600) == b"\x5a" * 40 + bytes(984)
    # The default 4 KiB LBA pads a short read up to the whole page.
    tb = make_block_testbed()
    _write(tb, 0, b"\x5a" * 40)
    assert _device_read(tb, 0, 1) == b"\x5a" * 40 + bytes(PAGE_SIZE - 40)


def test_scrub_empties_the_store(block_tb):
    blk = block_tb.personality
    _write(block_tb, 0, b"data")
    _write(block_tb, 5 * PAGE_SIZE, b"more")
    blk.scrub()
    assert blk.stored_bytes == 0
    assert blk.read_back(0, 8) == bytes(8)
    assert blk.read_back(5 * PAGE_SIZE, 8) == bytes(8)


def test_nand_on_keeps_the_store_empty(block_tb_nand):
    _write(block_tb_nand, 0, b"through the FTL")
    assert block_tb_nand.personality.stored_bytes == 0
    assert block_tb_nand.personality.read_back(0, 15) == b"through the FTL"


#: Three pages: enough for writes and reads that straddle boundaries.
_SPAN = 3 * PAGE_SIZE

_ops = st.lists(
    st.tuples(st.sampled_from(["write", "read"]),
              st.integers(0, _SPAN - 1),         # byte offset
              st.integers(1, PAGE_SIZE + 200),   # length
              st.integers(0, 254)),              # pattern seed
    min_size=1, max_size=40)


@given(_ops)
@settings(max_examples=60, deadline=None)
def test_store_agrees_with_a_dense_model(ops):
    """Random byte-ranged writes and reads: the extent store reads back
    what a dense zero-initialised image of the same bytes holds."""
    tb = make_block_testbed()
    blk = tb.personality
    model = bytearray(_SPAN + 2 * PAGE_SIZE)
    for kind, offset, length, seed in ops:
        if kind == "write":
            data = bytes((seed + j) % 255 + 1 for j in range(length))
            blk._write_functional(offset, data, length)
            model[offset:offset + length] = data
        else:
            assert blk.read_back(offset, length) == bytes(
                model[offset:offset + length])
    for lpn, extent in blk._pages.items():
        # The extent ends at the highest byte written (written bytes
        # are non-zero), and never runs past its page.
        assert 0 < len(extent) <= PAGE_SIZE and extent[-1]
        page = model[lpn * PAGE_SIZE:(lpn + 1) * PAGE_SIZE]
        assert bytes(extent) == bytes(page[:len(extent)])
        assert not any(page[len(extent):])
