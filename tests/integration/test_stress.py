"""Randomised interleaving stress: the whole stack under mixed load.

Hypothesis drives random sequences of operations — different transfer
methods, sizes, queues, personalities — and checks global invariants:
byte-exact delivery, no wedged queues, conserved traffic accounting,
monotonic clock.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kvssd import KVStore
from repro.testbed import make_block_testbed, make_kv_testbed

_method = st.sampled_from(["prp", "sgl", "byteexpress", "bandslim", "hybrid"])
_size = st.sampled_from([1, 17, 32, 64, 100, 256, 1000, 4096])

_op = st.tuples(_method, _size, st.integers(0, 7), st.integers(0, 255))


@given(st.lists(_op, min_size=1, max_size=25))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_block_stack_under_random_interleaving(ops):
    tb = make_block_testbed(include_mmio=False)
    qids = tb.driver.io_qids
    expected = {}
    for method, size, slot, fill in ops:
        offset = slot * 8192
        payload = bytes((fill + i) % 256 for i in range(size))
        stats = tb.method(method).write(payload, cdw10=offset,
                                        qid=qids[slot % len(qids)])
        assert stats.ok, (method, size)
        expected[offset] = payload
    for offset, payload in expected.items():
        assert tb.personality.read_back(offset, len(payload)) == payload
    assert not tb.ssd.controller.sweep_width(ready_only=False)


_kv_op = st.tuples(st.sampled_from(["put", "get", "delete"]),
                   st.integers(0, 15), st.integers(0, 400))


@given(st.lists(_kv_op, min_size=1, max_size=30))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_kv_stack_agrees_with_model(ops):
    tb = make_kv_testbed(memtable_entries=16)
    store = KVStore(tb.driver, tb.method("byteexpress"))
    model = {}
    for kind, key_id, size in ops:
        key = f"stress-{key_id:09d}".encode()
        if kind == "put":
            value = bytes((key_id + i) % 256 for i in range(size))
            store.put(key, value)
            model[key] = value
        elif kind == "get":
            if key in model:
                assert store.get(key, max_value_len=8192) == model[key]
            else:
                from repro.kvssd import KeyNotFoundError
                with pytest.raises(KeyNotFoundError):
                    store.get(key, max_value_len=8192)
        else:
            if key in model:
                store.delete(key)
                del model[key]
            else:
                assert not store.exists(key)
    # Final audit.
    for key, value in model.items():
        assert store.get(key, max_value_len=8192) == value
    assert sorted(store.list_keys(b"stress-", max_keys=64)) == \
        sorted(model.keys())


@given(st.lists(st.tuples(_method, _size), min_size=1, max_size=15))
@settings(max_examples=30, deadline=None)
def test_accounting_invariants(ops):
    """Traffic and time deltas always reconcile, whatever the mix."""
    tb = make_block_testbed(include_mmio=False)
    t0, b0 = tb.clock.now, tb.traffic.total_bytes
    lat_sum, bytes_sum = 0.0, 0
    for method, size in ops:
        stats = tb.method(method).write(bytes(size), cdw10=0)
        assert stats.latency_ns > 0 and stats.pcie_bytes > 0
        lat_sum += stats.latency_ns
        bytes_sum += stats.pcie_bytes
    assert tb.clock.now - t0 == pytest.approx(lat_sum)
    assert tb.traffic.total_bytes - b0 == bytes_sum
