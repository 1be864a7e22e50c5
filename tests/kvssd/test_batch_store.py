"""Compound (batched) KV STORE: codec, semantics, trade-offs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.host.errors import DriverError
from repro.kvssd import KVStore
from repro.kvssd.commands import (
    KvEncodingError,
    decode_batch_payload,
    encode_batch_payload,
)
from repro.testbed import make_kv_testbed


class TestBatchCodec:
    def test_roundtrip(self):
        pairs = [(b"k1", b"v1"), (b"k2", b""), (b"k3", b"v" * 300)]
        assert decode_batch_payload(encode_batch_payload(pairs)) == pairs

    def test_empty_batch_rejected(self):
        with pytest.raises(KvEncodingError):
            encode_batch_payload([])

    def test_empty_key_rejected(self):
        with pytest.raises(KvEncodingError):
            encode_batch_payload([(b"", b"v")])

    def test_truncation_detected(self):
        raw = encode_batch_payload([(b"key", b"value")])
        with pytest.raises(KvEncodingError):
            decode_batch_payload(raw[:-2])

    @given(st.lists(st.tuples(st.binary(min_size=1, max_size=16),
                              st.binary(max_size=200)),
                    min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_roundtrip_property(self, pairs):
        assert decode_batch_payload(encode_batch_payload(pairs)) == pairs


class TestBatchStore:
    def _rig(self):
        tb = make_kv_testbed()
        return tb, KVStore(tb.driver, tb.method("byteexpress"))

    def test_all_pairs_stored(self):
        tb, store = self._rig()
        pairs = [(f"batch{i:011d}".encode(), f"val{i}".encode())
                 for i in range(20)]
        stats = store.put_batch(pairs)
        assert stats.ok
        for key, value in pairs:
            assert store.get(key) == value
        assert tb.personality.puts == 20

    def test_single_command_on_the_wire(self):
        tb, store = self._rig()
        pairs = [(f"one-cmd{i:09d}".encode(), b"v" * 32) for i in range(16)]
        assert store.put_batch(pairs).commands == 1

    def test_batch_amortises_protocol_cost(self):
        """Per-pair latency of a 32-pair batch is well below 32 single
        PUTs — the §2.2.1 bulk-PUT advantage."""
        tb, store = self._rig()
        pairs = [(f"amort{i:011d}".encode(), b"v" * 24) for i in range(32)]
        t0 = tb.clock.now
        store.put_batch(pairs)
        batch_per_pair = (tb.clock.now - t0) / 32
        t0 = tb.clock.now
        for key, value in pairs:
            store.put(key, value)
        single_per_pair = (tb.clock.now - t0) / 32
        # Device KV-engine work dominates either way (by design); the
        # batch removes the per-command protocol share (~4 us each).
        assert batch_per_pair < single_per_pair
        assert single_per_pair - batch_per_pair > 2000  # >2 us/pair saved

    def test_overwrite_semantics_in_batch(self):
        tb, store = self._rig()
        store.put_batch([(b"dup-key-00000001", b"first"),
                         (b"dup-key-00000001", b"second")])
        assert store.get(b"dup-key-00000001") == b"second"

    def test_oversized_key_rejected(self):
        tb, store = self._rig()
        with pytest.raises(DriverError):
            store.put_batch([(b"x" * 17, b"v")])

    def test_batch_survives_crash_as_one_unit(self):
        tb, store = self._rig()
        store.put_batch([(f"crashb{i:010d}".encode(), b"v") for i in range(8)])
        assert tb.personality.crash_and_recover() == 8
