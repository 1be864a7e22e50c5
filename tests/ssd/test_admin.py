"""Admin command set + controller enable handshake."""

import pytest

from repro.faults.plan import CORRUPT_TLP, DROP_CQE, DROP_DOORBELL, FaultPlan
from repro.host.driver import DriverError, NvmeDriver
from repro.nvme.command import NvmeCommand
from repro.nvme.constants import AdminOpcode, StatusCode
from repro.nvme.identify import IDENTIFY_SIZE, IdentifyController
from repro.nvme.registers import (
    CC_ENABLE,
    CSTS_READY,
    REG_CC,
    REG_CSTS,
    REG_CAP_LO,
)
from repro.sim.config import SimConfig
from repro.ssd.device import BlockSsdPersonality, OpenSsd
from repro.testbed import make_block_testbed


def test_capabilities_published_at_construction():
    ssd = OpenSsd(SimConfig().nand_off())
    cap_lo = ssd.bar.read32(REG_CAP_LO)
    assert (cap_lo & 0xFFFF) == ssd.config.sq_depth - 1  # MQES


def test_enable_without_admin_bases_stays_not_ready():
    ssd = OpenSsd(SimConfig().nand_off())
    ssd.bar.write32(REG_CC, CC_ENABLE)
    assert not ssd.bar.read32(REG_CSTS) & CSTS_READY
    assert not ssd.controller.enabled


def test_driver_bringup_enables_controller():
    tb = make_block_testbed()
    assert tb.ssd.controller.enabled
    assert tb.ssd.bar.read32(REG_CSTS) & CSTS_READY


def test_identify_reports_byteexpress_support():
    tb = make_block_testbed()
    ident = tb.driver.identify
    assert isinstance(ident, IdentifyController)
    assert ident.byteexpress
    assert ident.num_io_queues >= len(tb.driver.io_qids)


def test_disable_resets_queues():
    tb = make_block_testbed()
    tb.ssd.bar.write32(REG_CC, 0)  # controller reset
    assert not tb.ssd.controller.enabled
    assert not tb.ssd.controller.has_pending()
    assert not tb.ssd.bar.read32(REG_CSTS) & CSTS_READY


def test_identify_via_admin_command():
    tb = make_block_testbed()
    cmd = NvmeCommand(opcode=AdminOpcode.IDENTIFY, cdw10=1)
    future = tb.driver._admin_command(cmd, read_len=IDENTIFY_SIZE)
    assert future.ok and len(future.data) == IDENTIFY_SIZE
    assert IdentifyController.unpack(future.data).byteexpress


def _forge_admin(tb, cmd):
    """Submit *cmd* raw on the admin queue; return the device's CQE."""
    tb.driver.submit_raw(cmd, 0)
    tb.ssd.controller.process_all()
    (cqe,) = tb.driver.reap(0)
    return cqe


def test_identify_unknown_cns_rejected():
    tb = make_block_testbed()
    cmd = NvmeCommand(opcode=AdminOpcode.IDENTIFY, cdw10=0x99)
    assert _forge_admin(tb, cmd).status == StatusCode.INVALID_FIELD


def test_unknown_admin_opcode_rejected():
    tb = make_block_testbed()
    cqe = _forge_admin(tb, NvmeCommand(opcode=0x7E))
    assert cqe.status == StatusCode.INVALID_OPCODE


def test_create_duplicate_queue_rejected():
    tb = make_block_testbed()
    dup_cq = NvmeCommand(opcode=AdminOpcode.CREATE_CQ, prp1=0x100000,
                         cdw10=1 | (63 << 16), cdw11=0b11)
    assert _forge_admin(tb, dup_cq).status == StatusCode.INVALID_FIELD


def test_create_sq_requires_existing_cq():
    tb = make_block_testbed()
    orphan_sq = NvmeCommand(opcode=AdminOpcode.CREATE_SQ, prp1=0x100000,
                            cdw10=9 | (63 << 16), cdw11=0b1 | (9 << 16))
    assert _forge_admin(tb, orphan_sq).status == StatusCode.INVALID_FIELD


def test_delete_queue_pair_via_admin():
    tb = make_block_testbed()
    qid = tb.driver.io_qids[-1]
    del_sq = NvmeCommand(opcode=AdminOpcode.DELETE_SQ, cdw10=qid)
    assert tb.driver._admin_command(del_sq).ok
    del_cq = NvmeCommand(opcode=AdminOpcode.DELETE_CQ, cdw10=qid)
    assert tb.driver._admin_command(del_cq).ok
    # Deleting again fails cleanly.
    assert _forge_admin(tb, NvmeCommand(opcode=AdminOpcode.DELETE_SQ,
                                        cdw10=qid)).status == \
        StatusCode.INVALID_FIELD


def test_delete_cq_with_live_sq_rejected():
    tb = make_block_testbed()
    qid = tb.driver.io_qids[0]
    del_cq = NvmeCommand(opcode=AdminOpcode.DELETE_CQ, cdw10=qid)
    assert _forge_admin(tb, del_cq).status == StatusCode.INVALID_FIELD


# ----------------------------------------------------------------------
# Admin commands are QD-1 engine submissions: the reactor recovers them.
# A default block rig ends bring-up at these values after 9 commands.
# ----------------------------------------------------------------------
BRINGUP_NS, BRINGUP_BYTES, BRINGUP_COMMANDS = 30_542.0, 7_308, 9


def test_bringup_is_pinned():
    tb = make_block_testbed(fault_plan=FaultPlan.uniform(0.0))
    assert (tb.clock.now, tb.traffic.total_bytes,
            tb.ssd.controller.admin_commands_processed) == (
        BRINGUP_NS, BRINGUP_BYTES, BRINGUP_COMMANDS)
    opportunities = tb.ssd.faults.opportunities
    assert (opportunities[DROP_DOORBELL], opportunities[CORRUPT_TLP],
            opportunities[DROP_CQE]) == (9, 28, 0)


@pytest.mark.parametrize("index", range(BRINGUP_COMMANDS))
def test_bringup_survives_one_dropped_doorbell(index):
    """The reactor's re-ring recovers a lost admin doorbell at the cost
    of one more doorbell write: +100 ns and +36 B."""
    tb = make_block_testbed(
        fault_plan=FaultPlan.scheduled({DROP_DOORBELL: [index]}))
    assert tb.ssd.controller.admin_commands_processed == BRINGUP_COMMANDS
    assert tb.clock.now == BRINGUP_NS + 100
    assert tb.traffic.total_bytes == BRINGUP_BYTES + 36
    assert tb.driver.io_qids == [1, 2, 3, 4]


@pytest.mark.parametrize("first", [1, 2], ids=["create_cq", "create_sq"])
def test_two_dropped_doorbells_on_a_create_fail_loudly(first):
    """Two lost doorbells in a row abandon the command and resubmit it;
    the abandoned SQE still runs, so the duplicate Create is refused
    (DNR set) and bring-up raises rather than half-succeeding."""
    with pytest.raises(DriverError):
        make_block_testbed(fault_plan=FaultPlan.scheduled(
            {DROP_DOORBELL: [first, first + 1]}))


def test_identify_survives_being_run_twice():
    tb = make_block_testbed(
        fault_plan=FaultPlan.scheduled({DROP_DOORBELL: [0, 1]}))
    assert tb.driver.identify.byteexpress
    assert tb.ssd.controller.admin_commands_processed == BRINGUP_COMMANDS + 1
    assert tb.driver.io_qids == [1, 2, 3, 4]


def test_driver_respects_identify_queue_limit():
    cfg = SimConfig(num_io_queues=64).nand_off()  # > identify's 16
    ssd = OpenSsd(cfg)
    BlockSsdPersonality(ssd)
    with pytest.raises(DriverError):
        NvmeDriver(ssd)


def test_io_still_works_after_queue_deletion():
    tb = make_block_testbed()
    victim = tb.driver.io_qids[-1]
    tb.driver._admin_command(
        NvmeCommand(opcode=AdminOpcode.DELETE_SQ, cdw10=victim))
    stats = tb.method("byteexpress").write(b"post-delete",
                                           qid=tb.driver.io_qids[0])
    assert stats.ok


# ----------------------------------------------------------------------
# Queue-lifecycle churn (ISSUE 7 satellite): hundreds of create/delete
# cycles must leave no residue in the driver, BAR, or controller.
# ----------------------------------------------------------------------
def _lifecycle_baseline(tb):
    return {
        "qids": set(tb.driver.io_qids),
        "handlers": sorted(tb.ssd.bar.write_handler_offsets()),
        "pages": tb.driver.memory.mapped_pages,
        "ctrl_sqs": set(tb.ssd.controller._sqs),
        "ctrl_cqs": set(tb.ssd.controller._cqs),
        "rr": list(tb.ssd.controller._rr_order),
    }


def _churn(tb, cycles):
    from repro.datapath import names as dp_names
    from repro.nvme.constants import IoOpcode

    drv = tb.driver
    for i in range(cycles):
        qid = drv.create_io_queue_pair()
        # Real traffic so CID tracking and staging buffers get exercised.
        cmd = NvmeCommand(opcode=IoOpcode.WRITE, cdw10=(i * 8) & 0xFFFFFFFF)
        drv.submit(dp_names.BYTEEXPRESS, cmd, b"churn-%03d" % (i % 1000), qid)
        drv.ssd.controller.process_all()
        (cqe,) = drv.reap(qid)
        assert cqe.ok
        assert not drv.queue(qid).live_cids
        drv.delete_io_queue_pair(qid)
        assert qid not in drv.io_qids
        with pytest.raises(DriverError):
            drv.queue(qid)
    return drv


def test_queue_lifecycle_churn_leaks_nothing_mmio():
    from repro.testbed import make_virt_testbed

    tb = make_virt_testbed()
    before = _lifecycle_baseline(tb)
    _churn(tb, 300)
    assert _lifecycle_baseline(tb) == before


def test_queue_lifecycle_churn_leaks_nothing_shadow():
    from repro.sim.config import DOORBELL_SHADOW

    cfg = SimConfig(doorbell_mode=DOORBELL_SHADOW).nand_off()
    tb = make_block_testbed(config=cfg)
    before = _lifecycle_baseline(tb)
    drv = _churn(tb, 100)
    assert _lifecycle_baseline(tb) == before
    # Shadow slots of the churned qid are scrubbed back to zero.
    qid = max(before["qids"]) + 1  # the qid every cycle reused
    assert drv.shadow is not None
    assert drv.shadow.read_sq_tail(qid) == 0
    assert drv.shadow.read_cq_head(qid) == 0
    assert drv.shadow.read_sq_eventidx(qid) == 0
