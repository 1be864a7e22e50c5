"""A power cut across a relocating value-log GC pass.

GC re-appends a victim's live entries to the active segment, which sits
in device DRAM until it fills, and trims the victim at once.  Between
the two, a relocated value's only copy on NAND is the trimmed victim.
Cold keys that were durable at a checkpoint must read back after a cut
in that window, with power-loss protection (the active segment flushes
on the capacitor) and without it (the device boots from the checkpoint,
whose journal still maps the victim).
"""

from repro.kvssd import KVStore
from repro.testbed import make_kv_testbed

COLD = 48
HOT = 8


def _cold(i: int) -> bytes:
    return b"cold-%04d" % i


def _hot(i: int) -> bytes:
    return b"hot-%04d" % i


def _value(tag: int, i: int) -> bytes:
    return bytes([(tag * 31 + i) % 251]) * (600 + (i * 97) % 400)


def _cut_after_relocation():
    """Interleave cold and hot keys across flushed segments, checkpoint,
    then churn the hot keys until GC has moved a cold value into the
    unflushed active segment.  Returns (rig, checkpoint, cold values)."""
    tb = make_kv_testbed()
    kv = tb.personality
    vlog = kv.vlog
    store = KVStore(tb.driver, tb.method("byteexpress"))
    cold = {}
    for i in range(COLD):
        cold[_cold(i)] = _value(0, i)
        store.put(_cold(i), cold[_cold(i)])
        store.put(_hot(i % HOT), _value(1, i))
    vlog.flush()
    tb.ssd.nand.drain()
    checkpoint = tb.ssd.durability.checkpoint()
    durable = set(vlog.flushed_segments)

    def relocated_cold() -> bool:
        ptrs = [kv.index.get(key) for key in cold]
        return any(p.segment not in durable for p in ptrs)

    round_ = 2
    while not relocated_cold():
        assert round_ < 200, "hot-key churn never relocated a cold value"
        for i in range(HOT):
            store.put(_hot(i), _value(round_, i))
        round_ += 1
    # The cut lands mid-relocation: the victim is trimmed and the moved
    # cold copies sit only in the active DRAM segment.
    assert not durable <= set(vlog.flushed_segments)
    for key in cold:
        ptr = kv.index.get(key)
        assert ptr.segment in durable or ptr.segment == vlog._segment
    return tb, checkpoint, cold


def test_a_cut_with_plp_keeps_every_relocated_cold_value():
    tb, _checkpoint, cold = _cut_after_relocation()
    tb.personality.crash_and_recover()
    for key, value in cold.items():
        assert tb.personality.peek(key) == value


def test_a_cut_without_plp_boots_from_the_checkpoint_with_every_cold_value():
    tb, checkpoint, cold = _cut_after_relocation()
    tb.ssd.durability.crash(checkpoint)
    tb.ssd.ftl.resync_with_nand()
    tb.personality.recover()
    for key, value in cold.items():
        assert tb.personality.peek(key) == value

