"""``NvmeController.sweep_width``: the width of the next firmware sweep.

A queue counts when it has unfetched entries or tagged chunks
outstanding; with no QoS arbiter every such queue is ready.  These
tests check the width against that rule on multi-queue rigs, with and
without QoS and tagged chunks.
"""

from repro.datapath import names as dp_names
from repro.nvme.command import NvmeCommand
from repro.nvme.constants import IoOpcode
from repro.sim.config import SimConfig
from repro.ssd.context import MODE_TAGGED
from repro.testbed import make_block_testbed, make_virt_testbed
from repro.virt import QosParams, TenantManager


def _rig(queues=4, **kw):
    return make_block_testbed(
        config=SimConfig(num_io_queues=queues).nand_off(), **kw)


def _put(tb, qid, offset=0, ring=True, method=dp_names.PRP):
    cmd = NvmeCommand(opcode=IoOpcode.WRITE, nsid=1, cdw10=offset)
    tb.driver.submit(method, cmd, b"\xab" * 100, qid, ring=ring)


def _pending_queues(ctrl):
    """The general rule: queues with unfetched entries or tagged chunks
    outstanding."""
    return sum(1 for qid in ctrl._sqs
               if ctrl._pending_on(qid) or ctrl._pending_chunks.get(qid, 0))


def test_idle_rig_has_width_zero():
    ctrl = _rig().ssd.controller
    assert ctrl.sweep_width() == 0
    assert ctrl.sweep_width(ready_only=False) == 0


def test_width_counts_queues_with_doorbelled_work():
    tb = _rig()
    ctrl = tb.ssd.controller
    _put(tb, 1)
    assert ctrl.sweep_width() == 1
    _put(tb, 3, offset=4096)
    _put(tb, 3, offset=8192)
    # Two commands on one queue count once.
    assert ctrl.sweep_width() == 2 == _pending_queues(ctrl)
    # An unrung submission is not doorbell'd work yet.
    _put(tb, 2, offset=12288, ring=False)
    assert ctrl.sweep_width() == 2
    tb.driver.kick(2)
    assert ctrl.sweep_width() == 3 == _pending_queues(ctrl)
    assert ctrl.sweep_width(ready_only=False) == 3
    # One sweep services one command per queue: q3 keeps its second.
    ctrl.poll_once()
    assert ctrl.sweep_width() == 1 == _pending_queues(ctrl)
    ctrl.process_all()
    assert ctrl.sweep_width() == 0 == _pending_queues(ctrl)


def test_stale_shadow_page_with_nothing_pending_counts_one():
    """A stale shadow page is ready work: it is synced before the queues
    are counted, and the width is at least 1 though no queue turns out
    to hold an entry."""
    tb = make_block_testbed(config=SimConfig(
        num_io_queues=2, doorbell_mode="shadow").nand_off())
    ctrl = tb.ssd.controller
    assert ctrl._shadow is not None
    _put(tb, 1)
    ctrl.process_all()
    assert ctrl.sweep_width() == 0
    ctrl._shadow_stale = True
    syncs = ctrl.shadow_syncs
    assert ctrl.sweep_width() == 1
    assert ctrl.shadow_syncs == syncs + 1
    assert not ctrl._shadow_stale
    assert ctrl.sweep_width() == 0


def test_width_with_tagged_chunks_in_flight():
    tb = _rig(queues=3, mode=MODE_TAGGED)
    ctrl = tb.ssd.controller
    _put(tb, 1, method=dp_names.BYTEEXPRESS_TAGGED)
    _put(tb, 2, offset=4096, method=dp_names.BYTEEXPRESS_TAGGED)
    assert ctrl.sweep_width() == 2 == _pending_queues(ctrl)
    # The sweep defers each command: its chunks are now outstanding.
    ctrl.poll_once()
    assert sum(ctrl._pending_chunks.values()) > 0
    assert ctrl.sweep_width() == 2 == _pending_queues(ctrl)
    ctrl.process_all()
    assert ctrl.sweep_width() == 0 == _pending_queues(ctrl)


def test_width_under_qos_never_counts_a_parked_queue_as_ready():
    tb = make_virt_testbed()
    mgr = TenantManager(tb, qos=True)
    active = mgr.provision("active", qos=QosParams(weight=1))
    parked = mgr.provision("parked", qos=QosParams(weight=0))
    ctrl = tb.ssd.controller
    for tenant in (active, parked):
        cmd = NvmeCommand(opcode=IoOpcode.WRITE, nsid=tenant.nsid)
        tb.driver.submit(dp_names.PRP, cmd, b"\xcd" * 64, tenant.qids[0])
    # Both queues have doorbell'd work; the parked one is never ready,
    # but a ready queue makes the sweep count every pending queue.
    assert ctrl.sweep_width(ready_only=False) == 2 == _pending_queues(ctrl)
    assert ctrl.sweep_width() == 2
    ctrl.poll_once()
    # Only the parked queue is left: pending, never ready.
    assert ctrl._pending_on(parked.qids[0])
    assert ctrl.sweep_width() == 0
    assert ctrl.sweep_width(ready_only=False) == 0
