"""Protocol edge cases: multi-extent SGL writes and MMIO commits."""

from repro.nvme.command import NvmeCommand
from repro.nvme.constants import IoOpcode, StatusCode
from repro.nvme.sgl import build_sgl
from repro.testbed import make_block_testbed


class TestSglMultiExtentWrite:
    def test_gathered_write_through_controller(self):
        """A two-extent SGL write (gather) delivers the concatenation."""
        tb = make_block_testbed()
        mem = tb.driver.memory
        a = mem.alloc_page()
        b = mem.alloc_page()
        mem.write(a, b"AAAA")
        mem.write(b, b"BBBBBB")
        mapping = build_sgl(mem, [(a, 4), (b, 6)])
        res = tb.driver.queue(1)
        cmd = NvmeCommand(opcode=IoOpcode.WRITE, cdw10=0, cdw12=10)
        cmd.cid = 1
        cmd.use_sgl()
        desc = mapping.inline.pack()
        cmd.prp1 = int.from_bytes(desc[:8], "little")
        cmd.prp2 = int.from_bytes(desc[8:], "little")
        tb.driver._push_sqe(res, cmd)
        tb.ssd.controller.process_all()
        (cqe,) = tb.driver.reap(1)
        assert cqe.ok
        assert tb.personality.read_back(0, 10) == b"AAAABBBBBB"

    def test_sgl_length_mismatch_fails_cleanly(self):
        tb = make_block_testbed()
        mem = tb.driver.memory
        a = mem.alloc_page()
        mapping = build_sgl(mem, [(a, 4)])
        res = tb.driver.queue(1)
        cmd = NvmeCommand(opcode=IoOpcode.WRITE, cdw12=100)  # lies: 100 B
        cmd.cid = 2
        cmd.use_sgl()
        desc = mapping.inline.pack()
        cmd.prp1 = int.from_bytes(desc[:8], "little")
        cmd.prp2 = int.from_bytes(desc[8:], "little")
        tb.driver._push_sqe(res, cmd)
        tb.ssd.controller.process_all()
        (cqe,) = tb.driver.reap(1)
        assert cqe.status == StatusCode.DATA_TRANSFER_ERROR


class TestMmioEdges:
    def test_zero_length_commit_reports_error(self):
        tb = make_block_testbed()
        from repro.transfer.bar_window import MMIO_PROFILE, decode_status
        tb.ssd.bar.write32(MMIO_PROFILE.status_reg, 0)
        tb.ssd.bar.write32(MMIO_PROFILE.commit_reg, 0)
        raw = tb.ssd.bar.read32(MMIO_PROFILE.status_reg)
        # Published as status + 1, like every other outcome.
        assert raw == StatusCode.INVALID_FIELD + 1
        assert decode_status(raw) == StatusCode.INVALID_FIELD

    def test_mmio_and_nvme_paths_coexist(self):
        tb = make_block_testbed()
        tb.method("mmio").write(b"M" * 64, cdw10=0)
        tb.method("byteexpress").write(b"B" * 64, cdw10=4096)
        assert tb.personality.read_back(0, 64) == b"M" * 64
        assert tb.personality.read_back(4096, 64) == b"B" * 64
