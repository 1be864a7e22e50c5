"""Passthrough request/result records."""

import pytest

from repro.nvme.constants import StatusCode
from repro.nvme.passthrough import PassthruRequest, PassthruResult


def test_write_request():
    req = PassthruRequest(opcode=0x01, data=b"abc")
    assert req.is_write
    assert req.data_len == 3


def test_read_request():
    req = PassthruRequest(opcode=0x02, read_len=512)
    assert not req.is_write
    assert req.data_len == 512


def test_dataless_request():
    req = PassthruRequest(opcode=0x00)
    assert not req.is_write
    assert req.data_len == 0


def test_cannot_be_both_read_and_write():
    with pytest.raises(ValueError):
        PassthruRequest(opcode=0x01, data=b"x", read_len=10)


def test_negative_read_len():
    with pytest.raises(ValueError):
        PassthruRequest(opcode=0x02, read_len=-1)


@pytest.mark.parametrize("word", ["mptr", "cdw14", "cdw15"])
def test_write_carries_no_words_its_codec_owns(word):
    """A write's SQE is built by its host codec from CDW10/11 and the
    data; a keyed-command word on a write would be silently dropped."""
    with pytest.raises(ValueError):
        PassthruRequest(opcode=0x01, data=b"x", **{word: 1})


def test_result_ok():
    assert PassthruResult(status=StatusCode.SUCCESS).ok
    assert not PassthruResult(status=StatusCode.INTERNAL_ERROR).ok


def test_mptr_reaches_the_sqe():
    """``PassthruRequest.mptr`` is carried into the SQE's metadata-pointer
    word, where NVMe-KV keeps the first 8 key bytes."""
    from repro.ssd.controller import CommandResult
    from repro.testbed import make_block_testbed

    tb = make_block_testbed()
    seen = []

    def on_probe(ctx):
        seen.append((ctx.cmd.mptr, ctx.cmd.cdw10))
        return CommandResult()

    tb.ssd.controller.register_handler(0xC9, on_probe, data_phase=False)
    res = tb.driver.passthru(PassthruRequest(
        opcode=0xC9, mptr=0x1122334455667788, cdw10=7))
    assert res.ok
    assert seen == [(0x1122334455667788, 7)]
