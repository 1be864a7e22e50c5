"""OpenSSD assembly + block personality behaviour."""


from repro.nvme.constants import IoOpcode, StatusCode
from repro.nvme.passthrough import PassthruRequest
from repro.sim.config import SimConfig
from repro.ssd.device import OpenSsd


def test_assembly_shares_clock_and_counter():
    ssd = OpenSsd(SimConfig().nand_off())
    assert ssd.link.counter is ssd.traffic
    assert ssd.nand.clock is ssd.clock


def test_nand_flag_reflected():
    assert OpenSsd(SimConfig()).nand_enabled
    assert not OpenSsd(SimConfig().nand_off()).nand_enabled


class TestBlockWritesNandOff:
    def test_write_read_cycle(self, block_tb):
        drv, blk = block_tb.driver, block_tb.personality
        data = bytes(range(200))
        res = drv.passthru(PassthruRequest(opcode=IoOpcode.WRITE, data=data,
                                           cdw10=8192))
        assert res.ok
        r = drv.passthru(PassthruRequest(opcode=IoOpcode.READ, read_len=200,
                                         cdw10=8192))
        assert r.data == data

    def test_sub_page_offsets(self, block_tb):
        drv, blk = block_tb.driver, block_tb.personality
        drv.passthru(PassthruRequest(opcode=IoOpcode.WRITE, data=b"AB",
                                     cdw10=4094))  # spans page boundary
        assert blk.read_back(4094, 2) == b"AB"

    def test_write_without_data_fails(self, block_tb):
        res = block_tb.driver.passthru(
            PassthruRequest(opcode=IoOpcode.WRITE))
        assert res.status == StatusCode.INVALID_FIELD

    def test_read_of_unwritten_is_zeroes(self, block_tb):
        r = block_tb.driver.passthru(
            PassthruRequest(opcode=IoOpcode.READ, read_len=16, cdw10=1 << 20))
        assert r.ok and r.data == b"\x00" * 16

    def test_zero_length_read_rejected(self, block_tb):
        r = block_tb.driver.passthru(
            PassthruRequest(opcode=IoOpcode.FLUSH))
        assert r.ok  # flush has no data, distinct from a 0-length read


class TestBlockWritesNandOn:
    def test_write_goes_through_ftl(self, block_tb_nand):
        drv = block_tb_nand.driver
        res = drv.passthru(PassthruRequest(opcode=IoOpcode.WRITE,
                                           data=b"\xaa" * 4096, cdw10=0))
        assert res.ok
        assert block_tb_nand.ssd.nand.programs >= 1

    def test_sub_page_rmw(self, block_tb_nand):
        drv, blk = block_tb_nand.driver, block_tb_nand.personality
        drv.passthru(PassthruRequest(opcode=IoOpcode.WRITE,
                                     data=b"\x11" * 4096, cdw10=0))
        drv.passthru(PassthruRequest(opcode=IoOpcode.WRITE, data=b"\x22" * 10,
                                     cdw10=100))
        page = blk.read_back(0, 4096)
        assert page[100:110] == b"\x22" * 10
        assert page[:100] == b"\x11" * 100

    def test_media_fault_surfaces_to_host(self, block_tb_nand):
        ssd = block_tb_nand.ssd
        for die in range(ssd.nand.geometry.dies):
            ssd.nand.inject_program_failures(die, count=2)
        res = block_tb_nand.driver.passthru(
            PassthruRequest(opcode=IoOpcode.WRITE, data=b"x" * 4096, cdw10=0))
        assert res.status == StatusCode.MEDIA_WRITE_FAULT

    def test_read_back_is_timing_free(self, block_tb_nand):
        """The verification read moves neither the clock nor the NAND
        counters, and reads a never-written page as zeros."""
        ssd, blk = block_tb_nand.ssd, block_tb_nand.personality
        block_tb_nand.driver.passthru(PassthruRequest(
            opcode=IoOpcode.WRITE, data=b"\x5a" * 4096, cdw10=0))
        ssd.nand.drain()
        before = (ssd.clock.now, ssd.nand.reads, ssd.nand.programs)
        assert blk.read_back(0, 4096) == b"\x5a" * 4096
        assert blk.read_back(1 << 20, 64) == b"\x00" * 64
        assert (ssd.clock.now, ssd.nand.reads, ssd.nand.programs) == before

    def test_reads_on_two_dies_overlap(self, block_tb_nand):
        """One READ spanning two pages on two dies waits for one NAND
        read, not two."""
        drv, ssd = block_tb_nand.driver, block_tb_nand.ssd
        drv.passthru(PassthruRequest(opcode=IoOpcode.WRITE,
                                     data=b"\x01" * 8192, cdw10=0))
        ssd.nand.drain()
        before = ssd.clock.now
        r = drv.passthru(PassthruRequest(opcode=IoOpcode.READ,
                                         read_len=8192, cdw10=0))
        assert r.ok and r.data == b"\x01" * 8192
        read_ns = ssd.config.timing.nand_page_read_ns
        assert read_ns <= ssd.clock.now - before < 2 * read_ns
        assert ssd.controller.parked_reads == 1

    def test_flush_drains_nand(self, block_tb_nand):
        drv = block_tb_nand.driver
        drv.passthru(PassthruRequest(opcode=IoOpcode.WRITE,
                                     data=b"x" * 4096, cdw10=0))
        before = block_tb_nand.ssd.clock.now
        res = drv.passthru(PassthruRequest(opcode=IoOpcode.FLUSH))
        assert res.ok
        assert block_tb_nand.ssd.clock.now >= before


def test_staging_buffer_wraps(block_tb):
    """Long write streams recycle the staging region without error."""
    blk = block_tb.personality
    total = blk.staging.size + 8192
    written = 0
    offset = 0
    while written < total:
        res = block_tb.driver.passthru(
            PassthruRequest(opcode=IoOpcode.WRITE, data=b"y" * 4096,
                            cdw10=offset))
        assert res.ok
        written += 4096
        offset += 4096
