"""Completion reactor: CQ draining, future resolution, recovery at QD ≫ 1.

One ``poll()`` round is the engine's heartbeat:

1. **Kick** — ring the doorbell of every queue with unpublished
   submissions (one MMIO write per queue, amortised over the batch).
2. **Drive** — run the device firmware loop to quiescence.  While N
   queues have doorbell'd work and the controller has ``fetch_lanes``
   parallel fetch/DMA engines, per-command service overlaps: the sweep
   runs under :meth:`SimClock.concurrent`, which is where multi-queue
   scaling physically comes from in the cost model.
3. **Reap** — drain every CQ phase-bit-first via ``driver.reap`` and
   resolve the matching futures out of order.  Error completions with
   DNR clear are parked for backoff and resubmission; DNR-set errors
   fail their future immediately.
4. **Recover** — entries still tabled after a quiescent drive got no
   CQE at all: re-ring their doorbells (recovers a dropped tail write),
   drive and reap again, then resubmit survivors under fresh CIDs with
   exponential backoff (recovers a dropped CQE) until the retry policy's
   attempt/deadline budget runs out.
5. **Release** — resubmit parked entries whose backoff expired; when the
   pipeline is otherwise empty, sleep the clock forward to the earliest
   ``retry_at`` so backoff consumes simulated time exactly once.

This is the stack's one recovery loop.  ``NvmeDriver.passthru`` is a
QD-1 submission to an engine, and so is every admin command (on the
:class:`~repro.engine.engine.AdminQueueEngine`), so the synchronous
ioctl path and bring-up recover here too, with the driver's policy
object, breaker and event taxonomy.
CQEs are matched to futures by (qid, cid): a late CQE of an abandoned
attempt counts as a stale completion and can never resolve another
command.  A timeout is not a breaker failure (the command may have
run); error completions with DNR clear on a guarded path are.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.host.breaker import STATE_CLOSED
from repro.nvme.constants import StatusCode
from repro.pcie.traffic import (
    EVT_BREAKER_TRIP,
    EVT_RETRY,
    EVT_TIMEOUT,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import IoEngine
    from repro.engine.table import InFlightCommand


class CompletionReactor:
    """Drives completions for one :class:`~repro.engine.engine.IoEngine`."""

    def __init__(self, engine: "IoEngine") -> None:
        self.engine = engine

    # ------------------------------------------------------------------
    # the heartbeat
    # ------------------------------------------------------------------
    def poll(self) -> int:
        """One kick → drive → reap → recover → release round.

        Returns the number of futures resolved (successfully or not).
        """
        e = self.engine
        e.kick_dirty()
        self.drive_device()
        resolved = self.reap_all()
        if resolved == 0:
            ctrl = e.ssd.controller
            if (ctrl.qos is not None and ctrl.has_pending()
                    and not ctrl.has_pending(ready_only=True)):
                # Nothing resolved and every pending queue is
                # QoS-throttled: sweep once so the all-denied sweep
                # advances the clock to the next token-refill instant.
                # Without this, a backpressured submitter polling on a
                # throttled queue would spin on a frozen clock.
                ctrl.poll_once()
        if e.table._entries:
            resolved += self._recover_stuck()
        if e.parked:
            self._release_parked(pipeline_idle=resolved == 0 and not e.table)
        return resolved

    # ------------------------------------------------------------------
    # device service under modelled concurrency
    # ------------------------------------------------------------------
    def drive_device(self) -> None:
        """Run the firmware loop to quiescence with parallel lanes.

        Each ``poll_once`` services one command on one queue; while K
        queues are active and the controller has L fetch lanes, that
        service overlaps min(K, L)-wide, so a sweep across K queues
        costs roughly one serial command time instead of K.
        """
        e = self.engine
        ctrl = e.ssd.controller
        conc = e.clock._concurrency
        fetch_lanes = e.fetch_lanes
        # Ready work only: a QoS-throttled tenant's backlog must not make
        # this loop (and with it every tenant's poll) wait out a token
        # refill — throttled queues get serviced once sim time reaches
        # their refill instant.
        while True:
            width = ctrl.sweep_width()
            if not width:
                break
            lanes = width if width < fetch_lanes else fetch_lanes
            if lanes == 1 and not conc:
                # A one-lane scope divides every advance by 1.0, which is
                # exact: with no outer scope open there is nothing to push.
                ctrl.poll_once()
                continue
            # Inlined clock.concurrent(lanes): lanes >= 1 (width > 0 here
            # and fetch_lanes >= 1), so the scope's validation cannot
            # fire; the push/pop pair is all that remains of the context
            # manager.
            conc.append(float(lanes))
            try:
                ctrl.poll_once()
            finally:
                conc.pop()
        # The device ran dry: flush coalesced completions before the
        # reap phase and, under shadow doorbells, publish the park
        # record so the host knows when a BAR wake becomes necessary.
        ctrl.quiesce()

    # ------------------------------------------------------------------
    # completion harvesting
    # ------------------------------------------------------------------
    def reap_all(self) -> int:
        resolved = 0
        e = self.engine
        qids = e.qids if e.schedule is None else e._order("reap", e.qids)
        reap = e.driver.reap
        for qid in qids:
            for cqe in reap(qid):
                resolved += self._on_cqe(qid, cqe)
        return resolved

    def _on_cqe(self, qid: int, cqe) -> int:
        e = self.engine
        entry = e.table.pop((qid, cqe.cid))
        if entry is None:
            # A CQE for a command the engine already abandoned (its
            # delayed completion raced our timeout resubmission).  The
            # driver has retired the CID; nothing to resolve.
            e.stats.stale_completions += 1
            return 0
        e.scheduler.note_complete(qid)
        breaker = e.driver.breaker
        if cqe.status == StatusCode.SUCCESS:
            # ``record_success()`` is a no-op on a closed breaker with no
            # failure streak, so it is only called when it has work.
            if ((breaker.consecutive_failures
                 or breaker.state != STATE_CLOSED) and entry.is_inline):
                breaker.record_success()
            if entry.read_pages:
                entry.finish_read(cqe, e.driver.memory)
            entry.resolve(cqe, e.clock.now)
            e.stats.completed += 1
            return 1
        if entry.is_inline and cqe.retryable and breaker.record_failure():
            e.stats.breaker_trips += 1
            e.driver.link.counter.record_event(EVT_BREAKER_TRIP)
        if cqe.retryable and self._park_for_retry(entry):
            return 0
        if entry.read_pages:
            entry.finish_read(None, e.driver.memory)
        entry.resolve(cqe, e.clock.now)
        e.stats.failed += 1
        return 1

    # ------------------------------------------------------------------
    # timeout recovery
    # ------------------------------------------------------------------
    def _recover_stuck(self) -> int:
        """Handle entries that survived a quiescent drive with no CQE."""
        e = self.engine
        stuck: List["InFlightCommand"] = e.table.entries()
        # First line of defence: republish every affected tail.  This is
        # idempotent and exactly recovers a dropped doorbell write — the
        # SQEs are in host memory, the device just never saw the tail.
        # Entries the re-ring recovers were stalled, not timed out, so
        # they are charged as ``re_rings`` only; timeouts are charged
        # below, to the entries still tabled after the retried drive.
        for qid in sorted({entry.key[0] for entry in stuck}):
            e.driver.kick(qid)
            e.stats.re_rings += 1
        self.drive_device()
        resolved = self.reap_all()

        # Whatever is still tabled lost its completion for good (dropped
        # CQE): the command may or may not have executed, so charge the
        # timeout, abandon the CID and resubmit from scratch — writes
        # are idempotent here.  Exception: a queue that still holds
        # unfetched SQEs after a (ready-only) drive is QoS-throttled,
        # not stuck — its completions arrive once the tokens refill, so
        # recovery for its entries waits until the queue itself drains.
        ctrl = e.ssd.controller
        lost = [entry for entry in e.table.entries()
                if ctrl._pending_on(entry.key[0]) == 0]
        e.stats.timeouts += len(lost)
        e.driver.timeouts += len(lost)
        if lost:
            e.driver.link.counter.record_event(EVT_TIMEOUT, len(lost))
        for entry in lost:
            e.table.pop(entry.key)
            e.scheduler.note_complete(entry.key[0])
            # Quarantines the CID and aborts any payload id bound to it.
            e.driver.retire(*entry.key)
            entry.key = None
            if not self._park_for_retry(entry):
                entry.release_read_buffer(e.driver.memory)
                entry.fail(None, e.clock.now)
                e.stats.failed += 1
                resolved += 1
        return resolved

    # ------------------------------------------------------------------
    # backoff / resubmission
    # ------------------------------------------------------------------
    def _park_for_retry(self, entry: "InFlightCommand") -> bool:
        """Queue *entry* for resubmission after exponential backoff.

        Returns False when the retry budget (attempts or deadline) is
        exhausted — the caller must fail the future.
        """
        e = self.engine
        backoff_ns = e.driver.retry_policy.next_backoff(
            entry.attempts, e.clock.now, entry.deadline_ns)
        if backoff_ns is None:
            return False
        # Parked off an error CQE the CID already retired via reap (and
        # released its payload id); the timeout path cleared the key.
        entry.key = None
        entry.retry_at_ns = e.clock.now + backoff_ns
        e.parked.append(entry)
        e.stats.retries += 1
        e.driver.retries += 1
        e.driver.link.counter.record_event(EVT_RETRY)
        return True

    def _release_parked(self, pipeline_idle: bool) -> None:
        e = self.engine
        if pipeline_idle and not e.table:
            # Nothing in flight to absorb the wait: backoff is the only
            # thing standing between now and progress, so sleep to the
            # earliest resubmission point.
            e.clock.advance_to(min(p.retry_at_ns for p in e.parked))
        ready = [p for p in e.parked if p.retry_at_ns <= e.clock.now]
        if not ready:
            return
        e.parked = [p for p in e.parked if p.retry_at_ns > e.clock.now]
        if e.schedule is not None:
            ready = e.schedule.order("parked", ready)
        for entry in ready:
            e.resubmit(entry)
