"""The controller's completion unit, decomposed out of the monolith.

:class:`CompletionUnit` owns CQE construction, completion-side fault
injection (delayed / dropped CQEs), coalesced posting (one DMA write +
one MSI-X per batch), and flushes.  It is a *unit* of the controller:
CQ state and stats stay on the controller, and the controller's
``_complete`` delegate remains the single externally-visible completion
entry (tests patch it; the protocol monitor's CQ wrappers hang off the
``DeviceCqState`` objects it posts through).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.faults.plan import DELAY_CQE, DELAY_CQE_NS, DROP_CQE
from repro.nvme.command import NvmeCommand
from repro.nvme.completion import NvmeCompletion
from repro.nvme.constants import CQE_SIZE, STATUS_SUCCESS
from repro.pcie import tlp as tlpmod
from repro.pcie.traffic import CAT_CQE, CAT_MSIX
from repro.ssd.context import ADMIN_QID, CommandResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ssd.controller import NvmeController


class CompletionUnit:
    """CQE posting, coalescing, and completion-path fault injection."""

    def __init__(self, ctrl: "NvmeController") -> None:
        self.ctrl = ctrl
        # Fixed-shape batches for the per-CQE posting path, built once.
        self._cqe_batch = tlpmod.device_dma_write(CQE_SIZE, ctrl.link.config)
        self._msix_batch = tlpmod.msix_interrupt(ctrl.link.config)

    def complete(self, qid: int, cmd: NvmeCommand,
                 result: CommandResult) -> None:
        ctrl = self.ctrl
        if result.suppress_cqe:
            ctrl.commands_processed += 1
            return
        clock = ctrl.clock
        _span_start = clock.now
        try:
            cq = ctrl._cqs[ctrl._sq_cq[qid]]
            status = result.status
            # Positional, in field order: result, sq_head, sq_id, cid,
            # phase, status, dnr.
            cqe = NvmeCompletion(
                result.result, ctrl._sqs[qid].head, qid, cmd.cid, 0, status,
                status != STATUS_SUCCESS and not result.retryable)
            # CQE faults target the I/O path: a lost *admin* completion
            # has no in-band recovery (real drivers escalate to a
            # controller reset), so bring-up is exempt.
            if qid != 0:
                faults = ctrl.faults
                left = faults.left
                if left[DELAY_CQE] and left[DROP_CQE]:
                    # Neither countdown is due: ``fire`` for both, inlined.
                    left[DELAY_CQE] -= 1
                    left[DROP_CQE] -= 1
                else:
                    if faults.fire(DELAY_CQE):
                        clock.advance(DELAY_CQE_NS)
                    if faults.fire(DROP_CQE):
                        # The CQE write (or its MSI-X) is lost: the
                        # command ran, but the host learns nothing and
                        # must time out + retry.
                        ctrl.dropped_cqes += 1
                        clock.advance(ctrl.timing.completion_post_ns)
                        ctrl.commands_processed += 1
                        return
            cq.post(cqe, ctrl.host_memory)
            if ctrl.config.cq_coalesce > 1 and qid != ADMIN_QID:
                # Coalesced posting: the CQE text is staged (functional
                # visibility keeps the phase-bit protocol intact); the
                # DMA write and MSI-X are batched — one of each per
                # ``cq_coalesce`` completions, or at quiescence.
                ctrl._coalesced[cq.qid] = ctrl._coalesced.get(cq.qid, 0) + 1
                clock.advance(ctrl.timing.cqe_coalesce_ns)
                if ctrl._coalesced[cq.qid] >= ctrl.config.cq_coalesce:
                    self.flush_cq(cq.qid)
            else:
                ctrl.link.record_pair(CAT_CQE, self._cqe_batch,
                                      CAT_MSIX, self._msix_batch)
                clock.advance(ctrl.timing.completion_post_ns)
        finally:
            clock.span_end("ctrl.completion", _span_start)
        ctrl.commands_processed += 1

    def flush_cq(self, cq_qid: int) -> None:
        """Post one buffered CQE batch: one DMA write, one MSI-X."""
        ctrl = self.ctrl
        count = ctrl._coalesced.pop(cq_qid, 0)
        if not count:
            return
        with ctrl.clock.span("ctrl.completion"):
            ctrl.link.record_only(
                CAT_CQE,
                tlpmod.device_dma_write(count * CQE_SIZE, ctrl.link.config))
            ctrl.link.record_only(CAT_MSIX, self._msix_batch)
            ctrl.clock.advance(ctrl.timing.completion_post_ns)
        ctrl.cqe_flushes += 1

    def flush_all(self) -> None:
        """Flush every CQ's buffered completion batch (idle transition,
        or any point the host needs the accounting settled)."""
        for cq_qid in list(self.ctrl._coalesced):
            self.flush_cq(cq_qid)
