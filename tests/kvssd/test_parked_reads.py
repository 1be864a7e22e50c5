"""GETs that miss DRAM park on their NAND die instead of stalling the
device: reads on different dies overlap, reads on one die queue, and a
parked command completes through the normal completion path."""

import pytest

from repro.engine import IoEngine
from repro.faults.plan import CUT_CQE, DROP_CQE, CrashCut, CrashPlan, FaultPlan
from repro.host.driver import NvmeDriver
from repro.kvssd import KVStore
from repro.kvssd.commands import encode_store_payload, key_field_words
from repro.kvssd.service import MAX_VALUE_BYTES
from repro.nvme.constants import KvOpcode
from repro.nvme.registers import REG_CC
from repro.sim.config import DOORBELL_SHADOW, SimConfig
from repro.testbed import make_kv_testbed
from repro.transfer import make_methods


def _rig(segments, fault_plan=None, config=None):
    """A KV rig holding *segments* (lists of keys), each flushed to its
    own value-log segment, so each on its own die."""
    tb = make_kv_testbed(config=config, fault_plan=fault_plan)
    store = KVStore(tb.driver, tb.method("byteexpress"))
    values = {}
    for keys in segments:
        for key in keys:
            values[key] = key * (1000 // len(key))
            store.put(key, values[key])
        tb.personality.vlog.flush()
    tb.ssd.nand.drain()
    return tb, values


def _die_of(tb, key):
    kv = tb.personality
    ppage = tb.ssd.ftl._map[kv.vlog.lpn_base + kv.index.get(key).segment]
    return tb.ssd.nand.geometry.die_index(ppage.channel, ppage.way)


def _busy(tb, die):
    """Keep *die* busy with an erase of its last block (no key lives
    there); returns when the die is idle again."""
    nand = tb.ssd.nand
    return nand.erase(die, nand.geometry.blocks_per_die - 1)


def _get(engine, key):
    mptr, cdw10, cdw11, cdw14 = key_field_words(key)
    return engine.submit_read(MAX_VALUE_BYTES, KvOpcode.RETRIEVE,
                              cdw10=cdw10, cdw11=cdw11, mptr=mptr,
                              cdw14=cdw14)


def _timed(tb):
    """Record, per CID, when RETRIEVE issued its NAND read and when its
    CQE posted."""
    ctrl = tb.ssd.controller
    clock = tb.ssd.clock
    issued, posted = {}, {}
    retrieve = ctrl._handlers[KvOpcode.RETRIEVE]

    def on_retrieve(ctx):
        result = retrieve(ctx)
        issued[ctx.cmd.cid] = clock.now
        return result

    complete = ctrl._complete

    def _complete(qid, cmd, result):
        posted[cmd.cid] = clock.now
        complete(qid, cmd, result)

    ctrl.register_handler(KvOpcode.RETRIEVE, on_retrieve, data_phase=False)
    ctrl._complete = _complete
    return issued, posted


def _park(tb, engine, keys):
    """Submit a GET per key and run the firmware loop dry without
    quiescing, so the GETs stay parked on their dies."""
    futures = [_get(engine, key) for key in keys]
    engine.kick_dirty()
    ctrl = tb.ssd.controller
    while ctrl.sweep_width():
        ctrl.poll_once()
    assert len(ctrl._parked) == len(keys)
    return futures


def test_gets_on_two_dies_overlap():
    tb, values = _rig([[b"alpha"], [b"beta"]])
    assert _die_of(tb, b"alpha") != _die_of(tb, b"beta")
    issued, posted = _timed(tb)
    engine = tb.make_engine(queues=1, qd=2)
    futures = [_get(engine, key) for key in values]
    engine.drain()
    read_ns = tb.ssd.config.timing.nand_page_read_ns
    assert [f.data for f in futures] == list(values.values())
    for cid in posted:  # the second may wait out the first's posting
        assert read_ns <= posted[cid] - issued[cid] < 1.05 * read_ns
    first, second = sorted(posted.values())
    assert second - first < read_ns
    assert tb.ssd.controller.parked_reads == 2


def test_gets_on_one_die_queue():
    tb, values = _rig([[b"alpha", b"beta"]])
    assert _die_of(tb, b"alpha") == _die_of(tb, b"beta")
    issued, posted = _timed(tb)
    engine = tb.make_engine(queues=1, qd=2)
    futures = [_get(engine, key) for key in values]
    engine.drain()
    read_ns = tb.ssd.config.timing.nand_page_read_ns
    assert [f.data for f in futures] == list(values.values())
    first, second = sorted(posted.values())
    assert second - min(issued.values()) >= 2 * read_ns
    assert second - first >= read_ns


def test_process_all_waits_out_parked_gets_in_ready_order():
    """A full drain posts every parked GET at or after its die finished,
    in ready order, and counts exactly the idle gaps as die wait."""
    tb, values = _rig([[b"alpha"], [b"beta"]])
    assert _die_of(tb, b"alpha") != _die_of(tb, b"beta")
    _busy(tb, _die_of(tb, b"alpha"))  # alpha's die finishes last
    _issued, posted = _timed(tb)
    engine = tb.make_engine(queues=1, qd=2)
    futures = _park(tb, engine, list(values))
    ctrl = tb.ssd.controller
    clock = tb.ssd.clock
    heap = sorted((ready, cmd.cid) for ready, _seq, _qid, cmd, _result
                  in ctrl._parked)
    done = []
    complete = ctrl._complete

    def _complete(qid, cmd, result):
        complete(qid, cmd, result)
        done.append(clock.now)

    ctrl._complete = _complete
    expected_wait = ctrl.die_wait_ns
    idle_from = clock.now
    ctrl.process_all()
    assert not ctrl._parked
    assert sorted(posted, key=posted.get) == [cid for _ready, cid in heap]
    gaps = []
    for (ready, cid), finished in zip(heap, done):
        assert posted[cid] >= ready
        gaps.append(max(ready - idle_from, 0.0))
        expected_wait += gaps[-1]
        idle_from = finished
    assert all(gaps)  # each die was still busy when the drain reached it
    assert ctrl.die_wait_ns == expected_wait
    engine.drain()
    assert [f.data for f in futures] == list(values.values())


def test_a_gc_trim_and_erase_after_issue_leave_a_parked_get_intact():
    """The page is captured at issue: value-log GC relocating the key
    and trimming its segment, then an erase of the NAND block, cannot
    change what the parked GET returns."""
    tb, values = _rig([[b"victim", b"filler"]])
    store = KVStore(tb.driver, tb.method("byteexpress"))
    store.put(b"filler", b"newer")  # the segment is now mostly garbage
    kv = tb.personality
    victim_segment = kv.index.get(b"victim").segment
    die = _die_of(tb, b"victim")
    block = tb.ssd.ftl._map[kv.vlog.lpn_base + victim_segment].block
    engine = tb.make_engine(queues=1, qd=1)
    (future,) = _park(tb, engine, [b"victim"])
    assert kv.vlog.collect(kv.index.get_many, kv.index.put)
    assert victim_segment not in kv.vlog.flushed_segments
    tb.ssd.nand.erase(die, block)
    engine.drain()
    assert future.ok and future.data == values[b"victim"]
    assert store.get(b"victim") == values[b"victim"]


def test_a_qd1_get_still_pays_the_full_read():
    tb, values = _rig([[b"alpha"]])
    store = KVStore(tb.driver, tb.method("byteexpress"))
    timing = tb.ssd.config.timing
    before = tb.ssd.clock.now
    assert store.get(b"alpha") == values[b"alpha"]
    assert (tb.ssd.clock.now - before
            >= timing.nand_page_read_ns + timing.kv_get_logic_ns)
    assert tb.ssd.controller.die_wait_ns > 0


def test_a_controller_reset_drops_parked_gets():
    tb, values = _rig([[b"alpha"], [b"beta"]])
    engine = tb.make_engine(queues=1, qd=2)
    futures = _park(tb, engine, list(values))
    ctrl = tb.ssd.controller
    tb.ssd.bar.write32(REG_CC, 0)
    ctrl.quiesce()
    assert not ctrl._parked
    assert tb.driver.reap(engine.qids[0]) == []
    assert not any(f.done for f in futures)
    # The host brings the device back up and issues the GETs again.
    driver = NvmeDriver(tb.ssd)
    store = KVStore(driver, make_methods(tb.ssd, driver)["byteexpress"])
    for key, value in values.items():
        assert store.get(key) == value


def test_a_power_cut_while_gets_are_parked_drops_them():
    """The cut lands on the first parked GET's CQE; the power loss drops
    the others, and after reboot and replay every GET returns its acked
    value."""
    tb, values = _rig([[b"alpha"], [b"beta"], [b"gamma"]])
    ssd = tb.ssd
    engine = tb.make_engine(queues=1, qd=4)
    futures = [_get(engine, key) for key in values]
    ssd.faults.arm_crash(CrashPlan(CUT_CQE, 0))
    with pytest.raises(CrashCut):
        engine.drain()
    ssd.faults.disarm_crash()
    assert len(ssd.controller._parked) == 2
    ssd.durability.crash(ssd.durability.checkpoint())
    assert not ssd.controller._parked
    assert not any(f.done for f in futures)
    driver = NvmeDriver(ssd)
    tb.personality.recover()
    store = KVStore(driver, make_methods(ssd, driver)["byteexpress"])
    for key, value in values.items():
        assert store.get(key) == value


def test_the_engine_retries_a_parked_get_whose_cqe_was_lost():
    """A parked completion goes through the CQE fault path: when it is
    dropped, the engine times out, resubmits, and gets the value."""
    tb, values = _rig([[b"alpha"]],
                      fault_plan=FaultPlan.scheduled({DROP_CQE: [0]}))
    tb.ssd.faults.reset()  # the next I/O CQE is the one dropped
    ctrl = tb.ssd.controller
    dropped = ctrl.dropped_cqes
    engine = tb.make_engine(queues=1, qd=1)
    future = _get(engine, b"alpha")
    engine.drain()
    assert future.ok and future.data == values[b"alpha"]
    assert future.attempts == 2
    assert engine.stats.timeouts == 1
    assert ctrl.dropped_cqes == dropped + 1
    assert ctrl.parked_reads == 2



def test_deleting_a_queue_drops_its_parked_gets():
    """The commands a deleted SQ still had parked are aborted with it:
    quiesce must not post to the queue that is gone."""
    tb, values = _rig([[b"alpha"]])
    engine = tb.make_engine(queues=1, qd=1)
    _park(tb, engine, list(values))
    ctrl = tb.ssd.controller
    ctrl.delete_sq(engine.qids[0])
    ctrl.quiesce()
    assert not ctrl._parked


def test_a_get_on_an_idle_die_overtakes_one_parked_on_a_busy_die():
    """A parked read is no barrier: the GET issued second, on an idle
    die, resolves while the first still waits on its busy die, and no
    drive waits that die out."""
    tb, values = _rig([[b"alpha"], [b"beta"]])
    assert _die_of(tb, b"alpha") != _die_of(tb, b"beta")
    idle_at = _busy(tb, _die_of(tb, b"alpha"))
    engine = tb.make_engine(queues=1, qd=2)
    (first,) = _park(tb, engine, [b"alpha"])
    second = _get(engine, b"beta")
    assert engine.poll() == 1
    assert second.ok and second.data == values[b"beta"]
    assert not first.done
    assert tb.ssd.clock.now < idle_at
    engine.drain()
    assert first.ok and first.data == values[b"alpha"]
    assert tb.ssd.clock.now >= idle_at


def test_a_lost_write_beside_a_parked_get_is_recovered_alone():
    """Recovery leaves a command parked on its die alone: the STORE
    whose CQE is dropped times out and is retried once, while the GET
    parked beside it is never re-rung, timed out or resubmitted."""
    tb, values = _rig([[b"alpha"]],
                      fault_plan=FaultPlan.scheduled({DROP_CQE: [0]}))
    _busy(tb, _die_of(tb, b"alpha"))
    ctrl = tb.ssd.controller
    engine = tb.make_engine(queues=1, qd=4)
    (get,) = _park(tb, engine, [b"alpha"])
    tb.ssd.faults.reset()  # the next I/O CQE is the one dropped
    puts = {b"lost": b"L" * 100, b"kept": b"K" * 100}
    writes = [engine.submit(encode_store_payload(key, value),
                            opcode=KvOpcode.STORE)
              for key, value in puts.items()]
    assert engine.poll() == 1  # the second STORE; the GET stays parked
    assert engine.stats.timeouts == 1 and engine.stats.retries == 1
    assert not get.done and len(ctrl._parked) == 1
    engine.drain()
    assert all(w.ok for w in writes)
    assert [w.attempts for w in writes] == [2, 1]
    assert get.ok and get.data == values[b"alpha"]
    assert get.attempts == 1
    assert ctrl.parked_reads == 1
    assert engine.stats.timeouts == 1 and engine.stats.retries == 1
    store = KVStore(tb.driver, tb.method("byteexpress"))
    for key, value in puts.items():
        assert store.get(key) == value


def test_a_get_parked_across_a_drive_completes_under_shadow_doorbells():
    """Under shadow doorbells the device publishes no park record while
    a read is parked (it is not idle yet); the GET still completes, and
    the record is published once it has."""
    tb, values = _rig([[b"alpha"]],
                      config=SimConfig(doorbell_mode=DOORBELL_SHADOW))
    ctrl = tb.ssd.controller
    assert ctrl._shadow is not None
    idle_at = _busy(tb, _die_of(tb, b"alpha"))
    engine = tb.make_engine(queues=1, qd=1)
    future = _get(engine, b"alpha")
    record = ctrl._shadow.read_poll_until()
    engine.kick_dirty()
    engine.reactor.drive_device()
    assert len(ctrl._parked) == 1 and not future.done
    assert ctrl._shadow.read_poll_until() == record
    engine.drain()
    assert future.ok and future.data == values[b"alpha"]
    assert ctrl._shadow.read_poll_until() > idle_at


def _count_scans(engine):
    """Count the reactor's scans of *engine*'s in-flight table."""
    scans = []
    entries = engine.table.entries

    def counted():
        scans.append(1)
        return entries()

    engine.table.entries = counted
    return scans


def test_a_parked_get_burst_never_scans_for_stuck_commands():
    """A burst on a 1-queue QD-2 engine runs a backpressure round per
    freed slot.  After each drive every command still in flight is
    parked on a die, so recovery skips its scan of the table (at one
    scan per round, the burst would scan ~30 times)."""
    keys = [b"key%03d" % i for i in range(32)]
    tb, values = _rig([keys[i:i + 4] for i in range(0, len(keys), 4)])
    engine = tb.make_engine(queues=1, qd=2)
    scans = _count_scans(engine)
    futures = [_get(engine, key) for key in keys]
    engine.drain()
    assert [f.data for f in futures] == [values[key] for key in keys]
    assert engine.stats.backpressure_waits >= len(keys) - 2
    assert engine.stats.timeouts == 0
    assert scans == []


def test_another_engines_parked_gets_do_not_hide_a_lost_completion():
    """The skip is exact per engine: GETs another engine has parked on
    the same device do not stand in for this engine's entries, so a
    STORE whose CQE is lost is timed out in the round that finds it."""
    tb, values = _rig([[b"alpha", b"beta", b"gamma"]],
                      fault_plan=FaultPlan.scheduled({DROP_CQE: [0]}))
    _busy(tb, _die_of(tb, b"alpha"))
    reader = tb.make_engine(queues=1, qd=4)
    gets = _park(tb, reader, list(values))
    writer = IoEngine(tb.ssd, tb.driver, queues=[tb.driver.io_qids[1]],
                      qd=4)
    scans = _count_scans(writer)
    tb.ssd.faults.reset()  # the next I/O CQE is the one dropped
    writes = [writer.submit(encode_store_payload(key, b"v" * 100),
                            opcode=KvOpcode.STORE)
              for key in (b"lost", b"kept")]
    assert writer.poll() == 1  # the kept STORE
    assert scans  # the parked GETs are not the writer's: it scanned
    assert writer.stats.timeouts == 1 and writer.stats.retries == 1
    assert len(tb.ssd.controller._parked) == len(gets)
    assert not any(g.done for g in gets)
    writer.drain()
    reader.drain()
    assert [w.attempts for w in writes] == [2, 1] and all(w.ok for w in writes)
    assert [g.data for g in gets] == list(values.values())
    assert reader.stats.timeouts == 0


def test_an_engine_waits_only_for_a_die_its_own_command_is_parked_on():
    """A round that resolved nothing waits for a die only when one of
    this engine's commands is parked there: a writer whose one STORE
    lost its CQE does not sleep the clock to a reader's busy die."""
    tb, values = _rig([[b"alpha"]],
                      fault_plan=FaultPlan.scheduled({DROP_CQE: [0]}))
    _busy(tb, _die_of(tb, b"alpha"))  # 3 ms erase
    reader = tb.make_engine(queues=1, qd=1)
    (get,) = _park(tb, reader, [b"alpha"])
    writer = IoEngine(tb.ssd, tb.driver, queues=[tb.driver.io_qids[1]],
                      qd=1)
    tb.ssd.faults.reset()  # the next I/O CQE is the one dropped
    write = writer.submit(encode_store_payload(b"lost", b"v" * 100),
                          opcode=KvOpcode.STORE)
    ctrl = tb.ssd.controller
    waited, start = ctrl.die_wait_ns, tb.ssd.clock.now
    writer.poll()
    assert ctrl.die_wait_ns == waited
    assert tb.ssd.clock.now - start < 1_000_000  # well short of the die
    assert len(ctrl._parked) == 1 and not get.done
    writer.drain()
    reader.drain()
    assert write.ok and write.attempts == 2
    assert get.ok and get.data == values[b"alpha"]
