"""BandSlim: fragment codec, reassembly layer, overhead behaviour."""

import pytest

from repro.nvme.constants import BANDSLIM_FRAGMENT_CAPACITY, IoOpcode, StatusCode
from repro.nvme.queues import QueueFullError
from repro.transfer.bandslim import pack_fragment, unpack_fragment
from repro.testbed import make_block_testbed


class TestFragmentCodec:
    def test_roundtrip(self):
        frag = pack_fragment(stream=5, seq=2, total_len=100,
                             frag=b"hello fragment!", last=True,
                             target_opcode=IoOpcode.WRITE)
        view = unpack_fragment(frag)
        assert view.stream == 5
        assert view.seq == 2
        assert view.total_len == 100
        assert view.data == b"hello fragment!"
        assert view.last
        assert view.target_opcode == IoOpcode.WRITE

    def test_full_capacity(self):
        data = bytes(range(BANDSLIM_FRAGMENT_CAPACITY))
        view = unpack_fragment(pack_fragment(1, 0, 32, data, False, 1))
        assert view.data == data
        assert not view.last

    def test_oversized_fragment_rejected(self):
        with pytest.raises(ValueError):
            pack_fragment(1, 0, 64, b"x" * 33, False, 1)

    def test_empty_fragment_rejected(self):
        with pytest.raises(ValueError):
            pack_fragment(1, 0, 0, b"", True, 1)

    def test_unpack_rejects_wrong_opcode(self):
        from repro.nvme.command import NvmeCommand
        with pytest.raises(ValueError):
            unpack_fragment(NvmeCommand(opcode=0x01))

    def test_fragment_survives_wire(self):
        from repro.nvme.command import NvmeCommand
        frag = pack_fragment(9, 1, 64, b"\xde\xad" * 10, True, 0xC0)
        back = NvmeCommand.unpack(frag.pack())
        view = unpack_fragment(back)
        assert view.data == b"\xde\xad" * 10
        assert view.stream == 9


class TestBandSlimTransfer:
    def test_single_fragment_for_sub_32b(self):
        """Paper: sub-32-byte payloads ride a single command."""
        tb = make_block_testbed()
        stats = tb.method("bandslim").write(b"x" * 32)
        assert stats.commands == 1

    def test_fragment_count_scales(self):
        tb = make_block_testbed()
        assert tb.method("bandslim").write(b"x" * 33).commands == 2
        assert tb.method("bandslim").write(b"x" * 128).commands == 4

    def test_latency_grows_linearly_with_fragments(self):
        """§3.2: repeated CMD issuance loses scalability beyond ~64 B."""
        tb = make_block_testbed()
        lat = {n: tb.method("bandslim").write(b"x" * n).latency_ns
               for n in (32, 128, 512)}
        assert lat[128] > 2.5 * lat[32]
        assert lat[512] > 3.0 * lat[128]

    def test_intermediate_fragments_suppress_cqes(self):
        tb = make_block_testbed()
        layer = tb.method("bandslim").device_layer
        tb.method("bandslim").write(b"x" * 128)  # 4 fragments
        assert layer.fragments == 4
        assert layer.payloads == 1
        # Only one CQE per payload reached the host (wait() consumed it);
        # the CQ must now be empty.
        assert tb.driver.queue(1).cq.poll() is None

    def test_out_of_order_fragment_fails_stream(self):
        """Serialisation violation is detected, not silently corrupted."""
        tb = make_block_testbed()
        frag0 = pack_fragment(99, 1, 64, b"a" * 32, False, IoOpcode.WRITE)
        tb.driver.submit_raw(frag0, qid=1)
        cqe = tb.driver.wait(1)
        assert cqe.status == StatusCode.INVALID_FIELD

    def test_payload_exceeding_queue_capacity_refused_upfront(self):
        """A fragment stream larger than the SQ must fail atomically."""
        from repro.sim.config import SimConfig
        tb = make_block_testbed(config=SimConfig(sq_depth=16).nand_off())
        with pytest.raises(QueueFullError):
            tb.method("bandslim").write(b"x" * (32 * 32))  # 32 frags > 15
        assert tb.driver.queue(1).sq.tail == 0
        # Nothing partially inserted: the path still works.
        assert tb.method("bandslim").write(b"y" * 64).ok
        # The engine refuses it with the same error type, up front.
        engine = tb.make_engine(queues=1, qd=4)
        tail = tb.driver.queue(1).sq.tail
        with pytest.raises(QueueFullError):
            engine.submit(b"x" * (32 * 32), "bandslim")
        assert tb.driver.queue(1).sq.tail == tail and not engine.inflight
        future = engine.submit(b"z" * 64, "bandslim")
        engine.drain()
        assert future.ok

    def test_length_mismatch_detected(self):
        tb = make_block_testbed()
        bad = pack_fragment(50, 0, 1000, b"a" * 32, last=True,
                            target_opcode=IoOpcode.WRITE)
        tb.driver.submit_raw(bad, qid=1)
        cqe = tb.driver.wait(1)
        assert cqe.status == StatusCode.DATA_TRANSFER_ERROR
