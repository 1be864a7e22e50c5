"""Read-path behaviour: LBA-granular returns + SGL bit-bucket reads (§5)."""

import pytest

from repro.nvme.constants import IoOpcode
from repro.nvme.passthrough import PassthruRequest
from repro.sim.config import SimConfig
from repro.testbed import make_block_testbed, make_kv_testbed


@pytest.fixture
def tb():
    tb = make_block_testbed()
    tb.method("prp").write(bytes(range(256)) * 16, cdw10=0)  # 4 KB of data
    return tb


def _read_traffic(tb, fn):
    before = tb.traffic.total_bytes
    result = fn()
    return result, tb.traffic.total_bytes - before


def test_block_read_returns_whole_lbas(tb):
    """A 64 B PRP read moves a full 4 KB logical block on the wire."""
    _, traffic = _read_traffic(
        tb, lambda: tb.driver.passthru(
            PassthruRequest(opcode=IoOpcode.READ, read_len=64, cdw10=0)))
    assert traffic > 4096


def test_block_read_data_still_correct(tb):
    r = tb.driver.passthru(
        PassthruRequest(opcode=IoOpcode.READ, read_len=64, cdw10=0))
    assert r.ok and r.data == bytes(range(64))


def test_512b_lba_shrinks_read_return():
    tb = make_block_testbed(config=SimConfig(lba_bytes=512).nand_off())
    tb.method("prp").write(b"r" * 4096, cdw10=0)
    _, traffic = _read_traffic(
        tb, lambda: tb.driver.passthru(
            PassthruRequest(opcode=IoOpcode.READ, read_len=64, cdw10=0)))
    assert traffic < 1500  # ~512 B + protocol, not 4 KB


def _sgl_read(tb, read_len):
    return tb.driver.passthru(
        PassthruRequest(opcode=IoOpcode.READ, read_len=read_len, cdw10=0),
        method="sgl")


class TestBitBucketRead:
    def test_discards_unwanted_bytes(self, tb):
        """64 B of a 4 KB block: the bucket saves ~4 KB of return traffic."""
        r, traffic = _read_traffic(tb, lambda: _sgl_read(tb, 64))
        assert r.ok and r.data == bytes(range(64))
        assert traffic < 1200  # vs >4 KB for the PRP read

    def test_full_read_without_bucket(self, tb):
        r = _sgl_read(tb, 4096)
        assert r.ok and r.data == bytes(range(256)) * 16

    def test_read_across_blocks_returns_wanted_bytes(self):
        """With 512 B blocks, a 600 B read spans two blocks; the bucket
        discards the rest of the second."""
        tb = make_block_testbed(config=SimConfig(lba_bytes=512).nand_off())
        tb.method("prp").write(bytes(range(256)) * 4, cdw10=0)
        r = _sgl_read(tb, 600)
        assert r.ok and r.data == (bytes(range(256)) * 4)[:600]

    def test_segment_page_freed_at_completion(self, tb):
        before = tb.driver.memory.mapped_pages
        assert _sgl_read(tb, 64).ok
        assert tb.driver.memory.mapped_pages == before
        assert not tb.driver.queue(1).pending_pages

    def test_read_rejects_write_only_methods(self, tb):
        from repro.host.driver import DriverError
        req = PassthruRequest(opcode=IoOpcode.READ, read_len=64, cdw10=0)
        for method in ("byteexpress", "bandslim"):
            with pytest.raises(DriverError):
                tb.driver.passthru(req, method=method)

    def test_build_read_sgl_validation(self):
        from repro.host.memory import HostMemory
        from repro.nvme.sgl import build_read_sgl
        mem = HostMemory()
        with pytest.raises(ValueError):
            build_read_sgl(mem, mem.alloc_page(), 0, 100)
        with pytest.raises(ValueError):
            build_read_sgl(mem, mem.alloc_page(), 64, -1)


def test_kv_retrieve_is_exact_length():
    """The KV command set returns values exactly — no LBA rounding."""
    from repro.kvssd import KVStore

    tb = make_kv_testbed()
    store = KVStore(tb.driver, tb.method("byteexpress"))
    store.put(b"small-value-key1", b"v" * 40)
    before = tb.traffic.total_bytes
    assert store.get(b"small-value-key1") == b"v" * 40
    assert tb.traffic.total_bytes - before < 1000
