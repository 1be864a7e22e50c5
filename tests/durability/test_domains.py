"""DurabilityMap semantics: registration, scrub order, checkpoints."""

import pytest

from repro.durability import (
    DEVICE_VOLATILE,
    HOST_VOLATILE,
    PERSISTENT,
    VOLATILE_DOMAINS,
    DurabilityMap,
    Persistable,
)
from repro.kvssd import KVStore
from repro.testbed import make_block_testbed, make_kv_testbed


class FakeState:
    """Minimal checkpointed entry that records every lifecycle call."""

    def __init__(self, value: int = 0) -> None:
        self.value = value
        self.calls = []

    def snapshot(self):
        self.calls.append("snapshot")
        return {"value": self.value}

    def restore(self, state):
        self.calls.append("restore")
        self.value = state["value"]

    def scrub(self):
        self.calls.append("scrub")
        self.value = 0


def test_fake_satisfies_the_protocol():
    assert isinstance(FakeState(), Persistable)


def test_register_rejects_unknown_domain():
    dmap = DurabilityMap()
    with pytest.raises(ValueError, match="unknown persistence domain"):
        dmap.register("x", "warm-ish", FakeState())


def test_checkpointing_persistent_state_is_meaningless():
    dmap = DurabilityMap()
    with pytest.raises(ValueError, match="persistent"):
        dmap.register("nand", PERSISTENT, FakeState(), checkpointed=True)


def test_register_replaces_silently():
    # Recovery builds a fresh driver that re-registers its queues under
    # the same names — exactly as a rebooted host would.
    dmap = DurabilityMap()
    old, new = FakeState(1), FakeState(2)
    dmap.register("q", DEVICE_VOLATILE, old)
    dmap.register("q", DEVICE_VOLATILE, new)
    assert dmap.get("q") is new
    assert dmap.names() == ["q"]


def test_introspection_and_unregister():
    dmap = DurabilityMap()
    dmap.register("a", HOST_VOLATILE, FakeState())
    dmap.register("b", DEVICE_VOLATILE, FakeState(), checkpointed=True)
    assert dmap.domain_of("a") == HOST_VOLATILE
    assert dmap.is_checkpointed("b") and not dmap.is_checkpointed("a")
    assert dmap.names(HOST_VOLATILE) == ["a"]
    dmap.unregister("a")
    dmap.unregister("a")  # idempotent
    assert dmap.names() == ["b"]


def test_scrub_touches_only_the_named_domain():
    dmap = DurabilityMap()
    host, dev, nand = FakeState(1), FakeState(2), FakeState(3)
    dmap.register("host", HOST_VOLATILE, host)
    dmap.register("dev", DEVICE_VOLATILE, dev)
    dmap.register("nand", PERSISTENT, nand)
    assert dmap.scrub(HOST_VOLATILE) == ["host"]
    assert host.calls == ["scrub"] and dev.calls == [] and nand.calls == []
    with pytest.raises(ValueError):
        dmap.scrub("bogus")


def test_crash_scrubs_volatile_domains_and_spares_persistent():
    dmap = DurabilityMap()
    host, dev, nand = FakeState(1), FakeState(2), FakeState(3)
    dmap.register("host", HOST_VOLATILE, host)
    dmap.register("dev", DEVICE_VOLATILE, dev)
    dmap.register("nand", PERSISTENT, nand)
    scrubbed = dmap.crash()
    # Device state dies with the controller before the host notices.
    assert scrubbed == ["dev", "host"]
    assert host.value == 0 and dev.value == 0
    assert nand.value == 3 and nand.calls == []


def test_crash_restores_checkpointed_entries_after_the_scrub():
    dmap = DurabilityMap()
    ftl = FakeState(7)
    dmap.register("ftl", DEVICE_VOLATILE, ftl, checkpointed=True)
    image = dmap.checkpoint()
    assert image == {"ftl": {"value": 7}}
    ftl.value = 99
    dmap.crash(image)
    assert ftl.value == 7
    assert ftl.calls == ["snapshot", "scrub", "restore"]


def test_checkpoint_covers_only_checkpointed_entries():
    dmap = DurabilityMap()
    dmap.register("plain", DEVICE_VOLATILE, FakeState(1))
    dmap.register("journ", DEVICE_VOLATILE, FakeState(2), checkpointed=True)
    assert set(dmap.checkpoint()) == {"journ"}


def test_stale_checkpoint_names_are_skipped():
    dmap = DurabilityMap()
    live = FakeState(5)
    dmap.register("live", DEVICE_VOLATILE, live, checkpointed=True)
    stale_image = {"gone": {"value": 1}, "live": {"value": 5}}
    dmap.crash(stale_image)  # must not raise on "gone"
    assert live.value == 5


def test_block_rig_registers_the_full_roster():
    tb = make_block_testbed()
    dmap = tb.ssd.durability
    names = set(dmap.names())
    assert {"host.memory", "host.driver",
            "ssd.dram", "ssd.controller", "ssd.ftl", "ssd.nand",
            "block.medium", "nvme.sq0", "nvme.cq0"} <= names
    assert dmap.domain_of("ssd.nand") == PERSISTENT
    assert dmap.domain_of("block.medium") == PERSISTENT
    assert dmap.domain_of("host.driver") == HOST_VOLATILE
    assert dmap.is_checkpointed("ssd.ftl")
    # One SQ/CQ pair per I/O queue, registered device-volatile.
    for qid in tb.driver.io_qids:
        assert dmap.domain_of(f"nvme.sq{qid}") == DEVICE_VOLATILE
        assert dmap.domain_of(f"nvme.cq{qid}") == DEVICE_VOLATILE


def test_shadow_doorbell_rig_registers_the_shadow_pages():
    from repro.sim.config import DOORBELL_SHADOW, SimConfig

    tb = make_block_testbed(
        config=SimConfig(doorbell_mode=DOORBELL_SHADOW).nand_off())
    dmap = tb.ssd.durability
    assert dmap.domain_of("host.shadow") == HOST_VOLATILE
    assert dmap.get("host.shadow") is tb.driver.shadow


def test_kv_rig_checkpoints_the_value_log():
    tb = make_kv_testbed()
    dmap = tb.ssd.durability
    assert dmap.is_checkpointed("kv.value_log")
    assert not dmap.is_checkpointed("kv.index")
    assert dmap.domain_of("kv.value_log") == DEVICE_VOLATILE
    # Every registered object actually satisfies the protocol.
    for name in dmap.names():
        assert isinstance(dmap.get(name), Persistable), name


def test_every_volatile_domain_is_covered_by_crash():
    assert set(VOLATILE_DOMAINS) == {HOST_VOLATILE, DEVICE_VOLATILE}


def test_kv_journal_round_trips_through_a_power_cut():
    # The two checkpointed entries are the real journal: the image taken
    # at a flush boundary is exactly what a no-PLP boot re-reads.
    tb = make_kv_testbed()
    store = KVStore(tb.driver, tb.method("byteexpress"))
    dmap = tb.ssd.durability
    for i in range(300):
        store.put(b"journal-%04d" % i, bytes([i & 0xFF]) * 64)
    tb.personality.vlog.flush()
    image = dmap.checkpoint()
    assert set(image) == {"ssd.ftl", "kv.value_log"}
    for i in range(300, 400):
        store.put(b"journal-%04d" % i, bytes([i & 0xFF]) * 64)
    assert dmap.checkpoint() != image
    dmap.crash(image)
    assert dmap.checkpoint() == image
