"""Tenant lifecycle: provisioning, namespace isolation, teardown,
the per-tenant engine facade, and provisioning at scale."""

import pytest

from repro.datapath import names as dp_names
from repro.engine import LoadGenerator, StreamSpec
from repro.engine.loadgen import LoadGenError
from repro.host.errors import DriverError
from repro.nvme.constants import DEFAULT_NSID, IoOpcode, StatusCode
from repro.nvme.passthrough import PassthruRequest
from repro.testbed import make_virt_testbed
from repro.verify.monitor import ProtocolMonitor
from repro.virt import QosParams, TenantManager, TenantSpec, VirtError


@pytest.fixture
def virt_tb():
    return make_virt_testbed()


def _run_tenant_streams(mgr, tenants, streams, **engine_kw):
    """Run one stream per tenant, each on its tenant's engine at
    ``qd=concurrency``, interleaved in one load generator."""
    engines = {s.stream_id: mgr.engine(t, qd=s.concurrency, **engine_kw)
               for s, t in zip(streams, tenants)}
    return LoadGenerator(engines, streams).run()


# ----------------------------------------------------------------------
# provisioning
# ----------------------------------------------------------------------
def test_spec_validation():
    with pytest.raises(VirtError):
        TenantSpec(name="")
    with pytest.raises(VirtError):
        TenantSpec(name="a", queues=0)
    with pytest.raises(VirtError):
        TenantSpec(name="a", nsid=0)


def test_provision_assigns_private_namespace_and_queues(virt_tb):
    mgr = TenantManager(virt_tb)
    a = mgr.provision("a", queues=2)
    b = mgr.provision("b")
    assert a.nsid != b.nsid
    assert a.nsid != DEFAULT_NSID and b.nsid != DEFAULT_NSID
    assert len(a.qids) == 2 and len(b.qids) == 1
    assert not set(a.qids) & set(b.qids)
    ctrl = virt_tb.ssd.controller
    for qid in a.qids:
        assert ctrl.namespace_of(qid) == a.nsid
        assert mgr.owner_of(qid) is a
    assert sorted(a.qids + b.qids) == mgr.tenant_qids()


def test_provision_rejects_duplicates(virt_tb):
    mgr = TenantManager(virt_tb)
    mgr.provision("a", nsid=7)
    with pytest.raises(VirtError):
        mgr.provision("a")
    with pytest.raises(VirtError):
        mgr.provision("b", nsid=7)


def test_provision_rolls_back_on_failure(virt_tb):
    mgr = TenantManager(virt_tb)
    baseline = set(virt_tb.driver.io_qids)
    # More queues than the controller advertises: the Nth create fails.
    limit = virt_tb.driver.identify.num_io_queues
    with pytest.raises(Exception):
        mgr.provision("greedy", queues=limit + 1)
    assert set(virt_tb.driver.io_qids) == baseline
    assert mgr.tenants() == []
    assert mgr.tenant_qids() == []


def test_qos_budget_only_when_enabled(virt_tb):
    mgr = TenantManager(virt_tb, qos=False)
    t = mgr.provision("a")
    assert t.budget is None
    assert mgr.arbiter is None
    assert virt_tb.ssd.controller.qos is None


def test_qos_arbiter_installed_and_registered(virt_tb):
    mgr = TenantManager(virt_tb, qos=True)
    t = mgr.provision("a", queues=2, qos=QosParams(weight=3))
    assert virt_tb.ssd.controller.qos is mgr.arbiter
    assert t.budget is not None and t.budget.params.weight == 3
    for qid in t.qids:
        assert mgr.arbiter.governs(qid)
        assert mgr.arbiter.budget_of(qid) is t.budget


def test_double_arbiter_rejected(virt_tb):
    TenantManager(virt_tb, qos=True)
    with pytest.raises(VirtError):
        TenantManager(virt_tb, qos=True)


# ----------------------------------------------------------------------
# namespace isolation
# ----------------------------------------------------------------------
def test_cross_namespace_write_rejected(virt_tb):
    mgr = TenantManager(virt_tb)
    a = mgr.provision("a")
    b = mgr.provision("b")
    drv = virt_tb.driver
    qid = a.qids[0]
    ok = drv.passthru(PassthruRequest(opcode=IoOpcode.WRITE, data=b"x" * 64,
                                      nsid=a.nsid), qid=qid)
    assert ok.ok
    stolen = drv.passthru(PassthruRequest(opcode=IoOpcode.WRITE,
                                          data=b"x" * 64, nsid=b.nsid),
                          qid=qid)
    assert stolen.status == StatusCode.INVALID_NAMESPACE_OR_FORMAT
    assert virt_tb.ssd.controller.ns_rejections == 1


def test_cross_namespace_read_rejected(virt_tb):
    mgr = TenantManager(virt_tb)
    a = mgr.provision("a")
    b = mgr.provision("b")
    drv = virt_tb.driver
    res = drv.passthru(PassthruRequest(opcode=IoOpcode.READ, read_len=64,
                                       nsid=b.nsid), qid=a.qids[0])
    assert res.status == StatusCode.INVALID_NAMESPACE_OR_FORMAT


def test_nsid_zero_rejected_once_enforcement_armed(virt_tb):
    mgr = TenantManager(virt_tb)
    mgr.provision("a")
    drv = virt_tb.driver
    # Host bring-up queue, unbound — but nsid 0 on an I/O command is
    # always invalid once any namespace is bound.
    res = drv.passthru(PassthruRequest(opcode=IoOpcode.WRITE,
                                       data=b"x" * 64, nsid=0),
                       qid=drv.io_qids[0])
    assert res.status == StatusCode.INVALID_NAMESPACE_OR_FORMAT


def test_unbound_host_queue_accepts_any_nonzero_nsid(virt_tb):
    mgr = TenantManager(virt_tb)
    a = mgr.provision("a")
    drv = virt_tb.driver
    res = drv.passthru(PassthruRequest(opcode=IoOpcode.WRITE,
                                       data=b"x" * 64, nsid=a.nsid),
                       qid=drv.io_qids[0])
    assert res.ok


def test_no_enforcement_without_tenants(virt_tb):
    # Zero-cost when unused: with no bindings, even nsid 0 passes (the
    # pre-virt wire default for raw commands).
    drv = virt_tb.driver
    res = drv.passthru(PassthruRequest(opcode=IoOpcode.WRITE,
                                       data=b"x" * 64, nsid=0),
                       qid=drv.io_qids[0])
    assert res.ok
    assert virt_tb.ssd.controller.ns_rejections == 0


# ----------------------------------------------------------------------
# teardown
# ----------------------------------------------------------------------
def test_teardown_returns_all_resources(virt_tb):
    drv = virt_tb.driver
    ctrl = virt_tb.ssd.controller
    mgr = TenantManager(virt_tb, qos=True)
    base_qids = set(drv.io_qids)
    base_pages = drv.memory.mapped_pages
    base_offsets = ctrl.bar.write_handler_offsets()
    t = mgr.provision("a", queues=3)
    assert len(drv.io_qids) == len(base_qids) + 3
    mgr.teardown("a")
    assert set(drv.io_qids) == base_qids
    assert drv.memory.mapped_pages == base_pages
    assert ctrl.bar.write_handler_offsets() == base_offsets
    for qid in t.qids:
        assert ctrl.namespace_of(qid) is None
        assert not mgr.arbiter.governs(qid)
        assert mgr.owner_of(qid) is None
    with pytest.raises(VirtError):
        mgr.tenant("a")


def test_teardown_then_reprovision_reuses_qids(virt_tb):
    mgr = TenantManager(virt_tb)
    a = mgr.provision("a", queues=2)
    old_qids = list(a.qids)
    mgr.teardown(a)
    b = mgr.provision("b", queues=2)
    assert b.qids == old_qids  # ids recycle, state starts clean
    res = virt_tb.driver.passthru(
        PassthruRequest(opcode=IoOpcode.WRITE, data=b"y" * 64,
                        nsid=b.nsid), qid=b.qids[0])
    assert res.ok


def test_teardown_refuses_inflight_commands(virt_tb):
    mgr = TenantManager(virt_tb)
    t = mgr.provision("a")
    eng = mgr.engine(t)
    eng.submit(b"z" * 64, nsid=t.nsid)
    with pytest.raises(DriverError):
        mgr.teardown(t)
    eng.drain()
    mgr.teardown(t)


# ----------------------------------------------------------------------
# engine facade
# ----------------------------------------------------------------------
def test_engine_facade_targets_tenant_namespace(virt_tb):
    mgr = TenantManager(virt_tb)
    t = mgr.provision("a", queues=2)
    eng = mgr.engine(t, qd=4)
    assert eng.qids == t.qids
    assert eng.default_nsid == t.nsid
    futures = [eng.submit(bytes([i]) * 64, cdw10=i * 4096)
               for i in range(8)]
    eng.drain()
    assert all(f.ok for f in futures)


def test_loadgen_runs_unmodified_per_tenant(virt_tb):
    mgr = TenantManager(virt_tb)
    t = mgr.provision("a", queues=2)
    gen = LoadGenerator(mgr.engine(t, qd=4),
                        [StreamSpec(stream_id=0, ops=30, size="fixed:64",
                                    concurrency=4)])
    report = gen.run()
    assert report.total_ok == 30


def test_interleaved_tenant_loads(virt_tb):
    mgr = TenantManager(virt_tb)
    tenants = [mgr.provision(name) for name in ("a", "b")]
    report = _run_tenant_streams(mgr, tenants, [
        StreamSpec(stream_id=0, ops=25, size="fixed:64", concurrency=4),
        StreamSpec(stream_id=1, ops=25, size="fixed:256", concurrency=4),
    ])
    assert [s.ok for s in report.streams] == [25, 25]
    assert report.total_errors == 0 and report.total_timeouts == 0


#: Victim (64 B byteexpress, QD 4) and aggressor (4 KiB PRP, QD 8), 60
#: ops each: per-stream (ok, p50, p99, elapsed_ns) as the dedicated
#: interleaved tenant loop measured them before tenant loads moved onto
#: the load generator.  Moving a loop must not move a simulated number.
_NOISY_PAIR_PIN = {
    False: [(60, 15490.0, 17240.0, 583360.0),
            (60, 60408.0, 61648.0, 478680.0)],
    True: [(60, 8430.0, 17039.399999999998, 302406.0),
           (60, 166250.0, 166341.0, 1228176.0)],
}


@pytest.mark.parametrize("qos", [False, True], ids=["qos_off", "qos_on"])
def test_tenant_streams_reproduce_the_noisy_neighbor_pair(qos):
    mgr = TenantManager(make_virt_testbed(), qos=qos)
    tenants = [
        mgr.provision("victim", qos=QosParams(weight=4) if qos else None),
        mgr.provision("aggressor",
                      qos=QosParams(weight=1, bytes_per_sec=200e6,
                                    burst_bytes=2 * 4160)
                      if qos else None),
    ]
    report = _run_tenant_streams(mgr, tenants, [
        StreamSpec(stream_id=0, ops=60, size="fixed:64",
                   method=dp_names.BYTEEXPRESS, concurrency=4),
        StreamSpec(stream_id=1, ops=60, size="fixed:4096",
                   method=dp_names.PRP, concurrency=8),
    ])
    got = [(s.ok, s.latency.p50, s.latency.p99, s.elapsed_ns)
           for s in report.streams]
    assert got == _NOISY_PAIR_PIN[qos]


def test_affinity_policy_tenant_engines_run(virt_tb):
    # Affinity placement needs a stream id on every submission; the load
    # generator sends one, so a tenant engine may use the policy.
    mgr = TenantManager(virt_tb)
    tenants = [mgr.provision(name, queues=2) for name in ("a", "b")]
    report = _run_tenant_streams(mgr, tenants, [
        StreamSpec(stream_id=i, ops=20, size="fixed:64", concurrency=4)
        for i in range(2)], policy="affinity")
    assert report.total_ok == 40
    # Stream i is pinned to queue i % 2 of its tenant's pair.
    used = [[virt_tb.driver.queue(q).sq.tail != 0 for q in t.qids]
            for t in tenants]
    assert used == [[True, False], [False, True]]


def _bound_polls(engine, limit=1000):
    """Make *engine*'s polls raise past *limit*, so a livelock fails the
    test instead of hanging it."""
    poll, calls = engine.poll, [0]

    def bounded():
        calls[0] += 1
        if calls[0] > limit:
            raise AssertionError(f"still polling after {limit} polls")
        return poll()

    engine.poll = bounded


def test_drain_on_a_parked_tenant_fails_instead_of_livelocking(virt_tb):
    # A weight-0 queue is parked on purpose: re-ringing it cannot help,
    # and the clock it burns would hide the wedge from drain().
    mgr = TenantManager(virt_tb, qos=True)
    parked = mgr.provision("parked", qos=QosParams(weight=0))
    engine = mgr.engine(parked, qd=1)
    _bound_polls(engine)
    engine.submit(b"x" * 64)
    with pytest.raises(DriverError, match="drain stalled"):
        engine.drain()
    assert engine.stats.re_rings == 0


def test_load_on_a_parked_tenant_fails_instead_of_livelocking(virt_tb):
    mgr = TenantManager(virt_tb, qos=True)
    tenants = [mgr.provision(f"t{i}", qos=QosParams(weight=0))
               for i in range(2)]
    engines = {i: mgr.engine(t, qd=1) for i, t in enumerate(tenants)}
    for engine in engines.values():
        _bound_polls(engine)
    streams = [StreamSpec(stream_id=i, ops=5, size="fixed:64",
                          concurrency=1) for i in range(2)]
    with pytest.raises(LoadGenError, match="wedged"):
        LoadGenerator(engines, streams).run()


# ----------------------------------------------------------------------
# scale
# ----------------------------------------------------------------------
def test_hundred_tenants_monitored_zero_violations():
    # The acceptance bar: >= 100 tenants, queues + namespaces + QoS all
    # active, under the protocol monitor, with zero violations.  The
    # monitor is attached explicitly so the test checks the same thing
    # with or without REPRO_VERIFY in the environment.
    tb = make_virt_testbed()
    if tb.monitor is None:
        tb.monitor = ProtocolMonitor.attach_testbed(tb)
    mgr = TenantManager(tb, qos=True)
    tenants = [mgr.provision(f"t{i:03d}",
                             qos=QosParams(weight=1 + i % 3))
               for i in range(100)]
    assert len(tb.driver.io_qids) >= 101
    # Every 10th tenant does real I/O (all 100 would be slow for no
    # extra coverage); the rest exercise provisioning + teardown.
    loaded = tenants[::10]
    report = _run_tenant_streams(mgr, loaded, [
        StreamSpec(stream_id=i, ops=5, size="fixed:64", concurrency=2)
        for i in range(len(loaded))])
    assert [s.ok for s in report.streams] == [5] * len(loaded)
    mgr.teardown_all()
    assert tb.monitor.violations == []
    assert tb.monitor.checks["INV_TENANT_QUEUE"] > 0
    assert tb.monitor.checks["INV_TENANT_NS"] > 0
    assert tb.monitor.checks["INV_QOS_BUDGET"] > 0
    assert mgr.tenant_qids() == []


# ----------------------------------------------------------------------
# monitor catches forged violations
# ----------------------------------------------------------------------
def test_monitor_flags_foreign_queue_fetch():
    from repro.verify import INV_TENANT_QUEUE, InvariantViolation

    tb = make_virt_testbed()
    if tb.monitor is None:
        tb.monitor = ProtocolMonitor.attach_testbed(tb)
    mgr = TenantManager(tb)
    t = mgr.provision("a")
    qid = t.qids[0]
    # Forge: drop the tenant's ownership record while the queue still
    # exists, then push work through it.
    del mgr._owner_of_qid[qid]
    drv = tb.driver
    with pytest.raises(InvariantViolation) as excinfo:
        drv.passthru(PassthruRequest(opcode=IoOpcode.WRITE,
                                     data=b"x" * 64, nsid=t.nsid),
                     qid=qid)
    assert excinfo.value.rule == INV_TENANT_QUEUE


def test_monitor_flags_cross_tenant_completion():
    from repro.verify import INV_TENANT_NS, InvariantViolation

    tb = make_virt_testbed()
    if tb.monitor is None:
        tb.monitor = ProtocolMonitor.attach_testbed(tb)
    mgr = TenantManager(tb)
    t = mgr.provision("a")
    # Forge: unbind device-side enforcement so a cross-namespace write
    # would complete successfully — the monitor must catch it.
    tb.ssd.controller.unbind_namespace(t.qids[0])
    with pytest.raises(InvariantViolation) as excinfo:
        tb.driver.passthru(PassthruRequest(opcode=IoOpcode.WRITE,
                                           data=b"x" * 64,
                                           nsid=t.nsid + 9),
                           qid=t.qids[0])
    assert excinfo.value.rule == INV_TENANT_NS
