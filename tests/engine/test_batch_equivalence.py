"""Equivalence suite for the batched hot loop.

The tentpole batching work is only legal because every bulk path is
*algebraically* identical to the per-op path it replaces:

* ``TrafficCounter.record_batch(cat, batch, n)`` must equal n scalar
  ``record`` calls — byte and TLP totals are integers, so multiplication
  is exact (pinned here with hypothesis over arbitrary interleavings);
* ``record_event(name, n)`` must equal n scalar events;
* an armed fault plan that never fires changes nothing: the hot paths
  are one code path whatever the plan, consuming fault opportunities off
  the injector's countdown, so a run under a plan whose rates are 0.0
  must resolve the same futures, observe the same per-queue CQE order
  and move the same traffic as a run with no plan at all; the schedule
  explorer then checks the agreement holds across legal service
  interleavings, not just the default one.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.reactor import CompletionReactor
from repro.faults.plan import CORRUPT_CHUNK, FaultPlan
from repro.pcie.tlp import (
    device_dma_read,
    device_dma_write,
    host_mmio_write,
    msix_interrupt,
)
from repro.pcie.traffic import TrafficCounter
from repro.sim.config import LinkConfig
from repro.testbed import make_engine_testbed
from repro.verify.explore import explore_schedules

_LINK = LinkConfig()

#: Representative protocol-action batches (doorbell, fetch, CQE, IRQ).
_BATCHES = (
    host_mmio_write(4, _LINK),
    device_dma_read(64, _LINK),
    device_dma_write(16, _LINK),
    msix_interrupt(_LINK),
)

_op = st.tuples(st.sampled_from(("doorbell", "cmd_fetch", "cqe", "msix")),
                st.integers(min_value=0, max_value=len(_BATCHES) - 1),
                st.integers(min_value=0, max_value=200))


def _totals(tc: TrafficCounter):
    return (tc.breakdown(), tc.tlp_breakdown(),
            tc.downstream_bytes, tc.upstream_bytes, tc.total_bytes)


@given(st.lists(_op, max_size=40))
@settings(max_examples=200)
def test_record_batch_equals_n_scalar_records(ops):
    """Any interleaving of bulk updates across categories matches the
    same interleaving expanded into scalar ``record`` calls."""
    bulk, scalar = TrafficCounter(), TrafficCounter()
    for cat, batch_idx, count in ops:
        batch = _BATCHES[batch_idx]
        bulk.record_batch(cat, batch, count)
        for _ in range(count):
            scalar.record(cat, batch)
    assert _totals(bulk) == _totals(scalar)


@given(st.lists(st.tuples(st.sampled_from(("timeout", "retry", "x")),
                          st.integers(min_value=0, max_value=50)),
                max_size=30))
@settings(max_examples=100)
def test_bulk_events_equal_n_scalar_events(ops):
    bulk, scalar = TrafficCounter(), TrafficCounter()
    for name, count in ops:
        bulk.record_event(name, count)
        for _ in range(count):
            scalar.record_event(name)
    assert bulk.events() == scalar.events()


def test_record_batch_zero_is_a_no_op_and_negative_rejected():
    tc = TrafficCounter()
    tc.record_batch("doorbell", _BATCHES[0], 0)
    assert tc.total_bytes == 0 and tc.tlp_count == 0
    try:
        tc.record_batch("doorbell", _BATCHES[0], -1)
    except ValueError:
        pass
    else:
        raise AssertionError("negative count must be rejected")


# ---------------------------------------------------------------------
# an armed plan that never fires changes nothing
# ---------------------------------------------------------------------

QUEUES = 2
QD = 4
OPS = 24

#: Armed (every opportunity is counted against it) but fires nothing.
_NEVER_FIRES = FaultPlan(rates={CORRUPT_CHUNK: 0.0})


def _run_workload(engine):
    """Submit a fixed op mix, recording per-queue CQE observation order."""
    cqe_order = {qid: [] for qid in engine.qids}
    reactor = engine.reactor
    orig_on_cqe = CompletionReactor._on_cqe

    def spy(self, qid, cqe):
        cqe_order[qid].append(cqe.cid)
        return orig_on_cqe(self, qid, cqe)

    reactor._on_cqe = spy.__get__(reactor)
    futs = [engine.submit(bytes([i % 251 + 1]) * 64, cdw10=i * 4096)
            for i in range(OPS)]
    engine.drain()
    facts = {f"op{i}.ok": fut.ok for i, fut in enumerate(futs)}
    for qid, cids in cqe_order.items():
        facts[f"q{qid}.cqe_order"] = tuple(cids)
    facts["completed"] = engine.stats.completed
    facts["failed"] = engine.stats.failed
    return facts


def _capture(fault_plan):
    """The workload's facts plus the traffic it moved."""
    tb = make_engine_testbed(queues=QUEUES, fault_plan=fault_plan)
    if fault_plan is None:
        tb = tb.unmonitor()
    engine = tb.make_engine(queues=QUEUES, qd=QD)
    facts = _run_workload(engine)
    traffic = (tb.traffic.breakdown(), tb.traffic.tlp_breakdown(),
               tb.traffic.events())
    return facts, traffic


def test_never_firing_plan_changes_nothing():
    """No plan ≡ an armed plan that never fires: same futures, same
    per-queue CQE order, same completion stats, same traffic."""
    assert _capture(None) == _capture(_NEVER_FIRES)


def test_never_firing_plan_changes_nothing_under_explorer():
    """The agreement must hold for every legal service interleaving: the
    armed, never-firing run is the baseline; plan-free runs are explored
    across schedule seeds against it."""
    baseline, _traffic = _capture(_NEVER_FIRES)

    def build():
        tb = make_engine_testbed(queues=QUEUES).unmonitor()
        return tb.make_engine(queues=QUEUES, qd=QD)

    result = explore_schedules(build, _run_workload, seeds=range(4),
                               baseline=baseline)
    assert result.ok, result.describe()
