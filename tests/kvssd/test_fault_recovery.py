"""KV reads recover from lost doorbells and CQEs the way writes do.

Every ``KVStore`` call is one ``driver.passthru``: GET, EXISTS, LIST and
DELETE get the same retry, timeout and doorbell re-ring recovery as a
PUT, and no abandoned command leaves its CID live.
"""

import pytest

from repro.faults import FaultPlan
from repro.kvssd.api import KeyNotFoundError, KVStore
from repro.testbed import make_kv_testbed

KEYS = 300


def _value(i: int) -> bytes:
    return bytes((i * 13 + j) & 0xFF for j in range(24 + i % 40))


@pytest.mark.parametrize("kind", ["drop_cqe", "drop_doorbell"])
def test_kv_reads_recover_like_writes(kind):
    tb = make_kv_testbed(fault_plan=FaultPlan.uniform(0.02, kinds=(kind,)))
    kv = KVStore(tb.driver, tb.method("byteexpress"))
    keys = [b"key%05d" % i for i in range(KEYS)]
    for i, key in enumerate(keys):
        kv.put(key, _value(i))

    for i, key in enumerate(keys):
        assert kv.get(key) == _value(i)
        assert kv.exists(key)
    assert not kv.exists(b"missing")

    listed = []
    start = b"key"
    while True:
        page = kv.list_keys(start, max_keys=64)
        listed += page
        if len(page) < 64:
            break
        start = page[-1] + b"\x00"
    assert listed == keys

    # A retried DELETE whose first attempt ran finds the key gone: it
    # reports KeyNotFoundError, never a driver error.
    for key in keys[::2]:
        try:
            kv.delete(key)
        except KeyNotFoundError:
            pass
    for i, key in enumerate(keys):
        if i % 2:
            assert kv.get(key) == _value(i)
        else:
            assert not kv.exists(key)
            with pytest.raises(KeyNotFoundError):
                kv.get(key)

    assert tb.ssd.faults.injected, "the plan never fired"
    assert tb.driver.inflight(kv.qid) == 0
