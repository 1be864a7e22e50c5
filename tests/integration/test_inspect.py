"""Inspection tooling: decode commands, dump queues/controller/traffic."""

import pytest

from repro.kvssd.commands import key_field_words
from repro.nvme.command import NvmeCommand
from repro.nvme.constants import IoOpcode, KvOpcode
from repro.testbed import make_block_testbed
from repro.tools import (
    describe_command,
    dump_controller,
    dump_queue,
    dump_traffic,
    opcode_name,
)
from repro.transfer.bandslim import pack_fragment


class TestOpcodeNames:
    def test_io(self):
        # 0x01 is ambiguous across command sets: both names shown.
        assert opcode_name(IoOpcode.WRITE) == "nvm.write|kv.store"
        assert opcode_name(IoOpcode.FLUSH) == "nvm.flush"

    def test_kv(self):
        assert opcode_name(0x10) == "kv.delete"

    def test_vendor(self):
        assert opcode_name(0xC0) == "vendor.csd_pushdown"

    def test_admin_table(self):
        assert opcode_name(0x06, admin=True) == "admin.identify"

    def test_unknown(self):
        assert "unknown" in opcode_name(0x7B)


class TestDescribeCommand:
    def test_plain_write(self):
        out = describe_command(NvmeCommand(opcode=IoOpcode.WRITE, cid=3,
                                           prp1=0x1000, cdw12=64))
        assert "nvm.write" in out
        assert "prp1=0x1000" in out
        assert "cdw12=0x40" in out

    def test_byteexpress_command(self):
        cmd = NvmeCommand(opcode=IoOpcode.WRITE)
        cmd.set_inline_length(200)
        out = describe_command(cmd)
        assert "ByteExpress payload of 200 B in 4 chunk(s)" in out

    def test_malformed_inline(self):
        cmd = NvmeCommand(opcode=IoOpcode.WRITE, cdw2=1 << 30)
        assert "MALFORMED" in describe_command(cmd)

    def test_bandslim_fragment(self):
        frag = pack_fragment(5, 1, 64, b"x" * 20, True, IoOpcode.WRITE)
        out = describe_command(frag)
        assert "stream=5 seq=1 20 B LAST -> nvm.write" in out

    def test_kv_command(self):
        mptr, cdw10, cdw11, cdw14 = key_field_words(b"somekey")
        out = describe_command(NvmeCommand(
            opcode=KvOpcode.RETRIEVE, nsid=1, mptr=mptr, cdw10=cdw10,
            cdw11=cdw11, cdw14=cdw14))
        assert "kv.retrieve" in out


class TestDumps:
    def test_dump_queue_shows_pending(self):
        tb = make_block_testbed()
        tb.driver.submit("byteexpress", NvmeCommand(opcode=IoOpcode.WRITE),
                                      b"q" * 100, qid=1)
        out = dump_queue(tb.driver, 1)
        assert "SQ1:" in out
        assert "ByteExpress payload of 100 B" in out
        tb.driver.wait(1)

    def test_dump_controller(self):
        tb = make_block_testbed()
        tb.method("byteexpress").write(b"x" * 64)
        out = dump_controller(tb.ssd)
        assert "CSTS.RDY=1" in out
        assert "inline payloads=1" in out

    def test_dump_traffic(self):
        tb = make_block_testbed()
        tb.method("prp").write(b"x" * 64)
        out = dump_traffic(tb.ssd)
        assert "doorbell" in out and "data" in out and "TLPs" in out


def test_feature_detection_blocks_inline_on_stock_firmware():
    """Driver refuses ByteExpress when Identify says unsupported."""
    from repro.host.driver import DriverError, NvmeDriver
    from repro.nvme.identify import IdentifyController
    from repro.sim.config import SimConfig
    from repro.ssd.device import BlockSsdPersonality, OpenSsd

    ssd = OpenSsd(SimConfig().nand_off())
    ssd.controller.identify_data = IdentifyController(byteexpress=False)
    ssd.controller.byteexpress_enabled = False   # stock firmware
    BlockSsdPersonality(ssd)
    driver = NvmeDriver(ssd)
    assert not driver.identify.byteexpress
    with pytest.raises(DriverError):
        driver.submit("byteexpress", NvmeCommand(opcode=IoOpcode.WRITE),
                                   b"x" * 64, qid=1)
    # PRP still works — graceful degradation.
    from repro.nvme.passthrough import PassthruRequest
    assert driver.passthru(PassthruRequest(opcode=IoOpcode.WRITE,
                                           data=b"x" * 64)).ok
