"""KV command codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kvssd.commands import (
    MAX_INLINE_KEY,
    KvEncodingError,
    decode_store_payload,
    encode_store_payload,
    key_field_words,
    unpack_key_fields,
)
from repro.nvme.command import NvmeCommand


class TestStorePayload:
    def test_roundtrip(self):
        payload = encode_store_payload(b"key", b"value")
        assert decode_store_payload(payload) == (b"key", b"value")

    def test_empty_value(self):
        assert decode_store_payload(encode_store_payload(b"k", b"")) == (b"k", b"")

    def test_empty_key_rejected(self):
        with pytest.raises(KvEncodingError):
            encode_store_payload(b"", b"v")

    def test_truncated_payload_rejected(self):
        with pytest.raises(KvEncodingError):
            decode_store_payload(b"\x05")
        with pytest.raises(KvEncodingError):
            decode_store_payload(b"\x05\x00ab")  # key_len 5, only 2 bytes

    @given(key=st.binary(min_size=1, max_size=64),
           value=st.binary(min_size=0, max_size=512))
    def test_roundtrip_property(self, key, value):
        assert decode_store_payload(encode_store_payload(key, value)) == \
            (key, value)


def _keyed_command(key):
    """A command carrying *key* in its key field (mptr + CDW10/11)."""
    mptr, cdw10, cdw11, cdw14 = key_field_words(key)
    return NvmeCommand(mptr=mptr, cdw10=cdw10, cdw11=cdw11, cdw14=cdw14)


class TestKeyFields:
    def test_roundtrip(self):
        cmd = _keyed_command(b"exactly16bytes!!")
        assert unpack_key_fields(cmd) == b"exactly16bytes!!"

    def test_short_key(self):
        cmd = _keyed_command(b"k")
        assert cmd.cdw14 == 1
        assert unpack_key_fields(cmd) == b"k"

    def test_key_survives_wire(self):
        cmd = _keyed_command(b"wire-key")
        back = NvmeCommand.unpack(cmd.pack())
        assert unpack_key_fields(back) == b"wire-key"

    def test_oversized_key_rejected(self):
        with pytest.raises(KvEncodingError):
            key_field_words(b"x" * (MAX_INLINE_KEY + 1))

    def test_bad_length_field_rejected(self):
        cmd = NvmeCommand(cdw14=17)
        with pytest.raises(KvEncodingError):
            unpack_key_fields(cmd)

    @given(st.binary(min_size=1, max_size=MAX_INLINE_KEY))
    def test_roundtrip_property(self, key):
        assert unpack_key_fields(_keyed_command(key)) == key

    @given(st.binary(min_size=0, max_size=MAX_INLINE_KEY - 1),
           st.integers(min_value=1, max_value=MAX_INLINE_KEY))
    def test_trailing_nuls_roundtrip_over_the_wire(self, prefix, nuls):
        key = (prefix + b"\x00" * nuls)[:MAX_INLINE_KEY]
        back = NvmeCommand.unpack(_keyed_command(key).pack())
        assert unpack_key_fields(back) == key

    @given(st.binary(min_size=1, max_size=MAX_INLINE_KEY))
    def test_words_are_the_nul_padded_key_field(self, key):
        # The layout on the wire: the key NUL-padded to 16 B, bytes 0-7
        # in MPTR, 8-11 in CDW10 and 12-15 in CDW11, little-endian.
        padded = key.ljust(MAX_INLINE_KEY, b"\x00")
        assert key_field_words(key) == (
            int.from_bytes(padded[:8], "little"),
            int.from_bytes(padded[8:12], "little"),
            int.from_bytes(padded[12:], "little"),
            len(key))

    @given(st.binary(min_size=MAX_INLINE_KEY + 1, max_size=64))
    def test_over_long_keys_rejected(self, key):
        with pytest.raises(KvEncodingError):
            key_field_words(key)

    def test_empty_key_and_zero_length_field_rejected(self):
        with pytest.raises(KvEncodingError):
            key_field_words(b"")
        with pytest.raises(KvEncodingError):
            unpack_key_fields(NvmeCommand(cdw14=0))
