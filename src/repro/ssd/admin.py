"""The controller's admin command set, decomposed out of the monolith.

:class:`AdminEngine` owns queue create/delete, Identify, and the DBBUF
(shadow doorbell) configuration — the bring-up half of the firmware.
It is a *unit* of the controller, not a peer: all queue state stays on
the controller (the orchestrator), and completions flow back through
``ctrl._complete`` so instrumentation and fault injection see one
completion path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict

from repro.host.shadow import ShadowDoorbells
from repro.nvme.command import NvmeCommand
from repro.nvme.constants import STATUS_SUCCESS, AdminOpcode, StatusCode
from repro.ssd.context import ADMIN_QID, CommandContext, CommandResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ssd.controller import NvmeController


class AdminEngine:
    """Admin-queue dispatch + handlers (Identify, queue mgmt, DBBUF)."""

    def __init__(self, ctrl: "NvmeController") -> None:
        self.ctrl = ctrl
        self._dispatch: Dict[int, Callable[[NvmeCommand], CommandResult]] = {
            AdminOpcode.IDENTIFY: self._identify,
            AdminOpcode.CREATE_CQ: self._create_cq,
            AdminOpcode.CREATE_SQ: self._create_sq,
            AdminOpcode.DELETE_SQ: self._delete_sq,
            AdminOpcode.DELETE_CQ: self._delete_cq,
            AdminOpcode.DBBUF_CONFIG: self._dbbuf_config,
        }

    def dispatch(self, qid: int, ctx: CommandContext) -> None:
        ctrl = self.ctrl
        cmd = ctx.cmd
        handler = self._dispatch.get(cmd.opcode)
        if handler is None:
            ctrl._complete(qid, cmd, CommandResult(StatusCode.INVALID_OPCODE))
            return
        result = handler(cmd)
        if result.read_data is not None and result.status == STATUS_SUCCESS:
            result = ctrl._push_read_data(cmd, result)
        ctrl.admin_commands_processed += 1
        ctrl._complete(qid, cmd, result)

    def _identify(self, cmd: NvmeCommand) -> CommandResult:
        cns = cmd.cdw10 & 0xFF
        if cns != 1:  # only Identify Controller is modelled
            return CommandResult(StatusCode.INVALID_FIELD)
        data = self.ctrl.identify_data.pack()
        return CommandResult(result=len(data), read_data=data)

    def _create_cq(self, cmd: NvmeCommand) -> CommandResult:
        ctrl = self.ctrl
        qid = cmd.cdw10 & 0xFFFF
        depth = ((cmd.cdw10 >> 16) & 0xFFFF) + 1
        if (qid == ADMIN_QID or not cmd.prp1
                or qid > ctrl.identify_data.num_io_queues):
            return CommandResult(StatusCode.INVALID_FIELD)
        try:
            ctrl.create_cq(qid, cmd.prp1, depth)
        except ValueError:
            return CommandResult(StatusCode.INVALID_FIELD)
        return CommandResult()

    def _create_sq(self, cmd: NvmeCommand) -> CommandResult:
        ctrl = self.ctrl
        qid = cmd.cdw10 & 0xFFFF
        depth = ((cmd.cdw10 >> 16) & 0xFFFF) + 1
        cq_qid = (cmd.cdw11 >> 16) & 0xFFFF
        if qid == ADMIN_QID or not cmd.prp1:
            return CommandResult(StatusCode.INVALID_FIELD)
        try:
            ctrl.create_sq(qid, cmd.prp1, depth, cq_qid=cq_qid)
        except ValueError:
            return CommandResult(StatusCode.INVALID_FIELD)
        return CommandResult()

    def _delete_sq(self, cmd: NvmeCommand) -> CommandResult:
        try:
            self.ctrl.delete_sq(cmd.cdw10 & 0xFFFF)
        except ValueError:
            return CommandResult(StatusCode.INVALID_FIELD)
        return CommandResult()

    def _delete_cq(self, cmd: NvmeCommand) -> CommandResult:
        try:
            self.ctrl.delete_cq(cmd.cdw10 & 0xFFFF)
        except ValueError:
            return CommandResult(StatusCode.INVALID_FIELD)
        return CommandResult()

    def _dbbuf_config(self, cmd: NvmeCommand) -> CommandResult:
        """Doorbell Buffer Config: attach the shadow + eventidx pages.

        From here on the controller latches I/O SQ tails and CQ heads
        from the shadow page (one DMA read per wake-up) and publishes
        eventidx/park records so the host knows when a BAR doorbell is
        still required.  The admin queue itself always stays on MMIO
        doorbells — DBBUF must remain reachable on a device whose
        shadow state is broken.
        """
        ctrl = self.ctrl
        if not cmd.prp1 or not cmd.prp2 or cmd.prp1 == cmd.prp2:
            return CommandResult(StatusCode.INVALID_FIELD)
        ctrl._shadow = ShadowDoorbells.attach(ctrl.host_memory,
                                              cmd.prp1, cmd.prp2)
        ctrl._shadow_stale = False
        ctrl._busy_since_park = False
        return CommandResult()
