"""Completion reactor: CQ draining, future resolution, recovery at QD ≫ 1.

One ``poll()`` round is the engine's heartbeat:

1. **Kick** — ring the doorbell of every queue with unpublished
   submissions (one MMIO write per queue, amortised over the batch).
2. **Drive** — run the device firmware loop to quiescence.  While N
   queues have doorbell'd work and the controller has ``fetch_lanes``
   parallel fetch/DMA engines, per-command service overlaps: each step
   runs with its lane count pushed on the clock's ``_concurrency``
   stack, which is where multi-queue scaling physically comes from in
   the cost model.  Once nothing is left to fetch, the reads parked on
   a NAND die whose die has finished post, with as many lanes as the
   queues they complete on; the drive never waits for a die.
3. **Reap** — drain every CQ phase-bit-first via ``driver.reap`` and
   resolve the matching futures out of order.  Error completions with
   DNR clear are parked for backoff and resubmission; DNR-set errors
   fail their future immediately.  A round that resolved nothing, with
   nothing left to fetch and one of this engine's reads parked on a
   die, waits for the earliest die, drives and reaps again.
4. **Recover** — entries still tabled after a quiescent drive, other
   than those parked on a die (a round where every entry is parked
   skips the scan), got no
   CQE at all: re-ring their doorbells (recovers a dropped tail write),
   drive and reap again, then resubmit survivors under fresh CIDs with
   exponential backoff (recovers a dropped CQE) until the retry policy's
   attempt/deadline budget runs out.
5. **Release** — resubmit parked entries whose backoff expired; when the
   pipeline is otherwise empty, sleep the clock forward to the earliest
   ``retry_at`` so backoff consumes simulated time exactly once.

This is the stack's one recovery loop.  ``NvmeDriver.passthru`` is a
QD-1 submission to an engine, and so is every admin command (a keyed
entry on an engine pinned to qid 0), so the synchronous ioctl path and
bring-up recover here too, with the driver's policy object, breaker
and event taxonomy.
CQEs are matched to futures by (qid, cid): a late CQE of an abandoned
attempt counts as a stale completion and can never resolve another
command.  A timeout is not a breaker failure (the command may have
run); error completions with DNR clear on a guarded path are.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.host.breaker import STATE_CLOSED
from repro.nvme.constants import STATUS_SUCCESS
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
            if (ctrl.qos is not None and ctrl.sweep_width(ready_only=False)
                    and not ctrl.sweep_width()):
                # Nothing resolved and every pending queue is
                # QoS-throttled: sweep once so the all-denied sweep
                # advances the clock to the next token-refill instant.
                # Without this, a backpressured submitter polling on a
                # throttled queue would spin on a frozen clock.
                ctrl.poll_once()
            if (ctrl._parked and not e.table._entries.keys().isdisjoint(
                    ctrl.parked_keys())
                    and (ctrl.qos is None or not ctrl.sweep_width())):
                # Nothing resolved, nothing to fetch (the drive ran dry;
                # only the throttled sweep above can have changed that),
                # one of this engine's reads parked on its die: the host
                # has nothing to do but wait for the earliest die, then
                # post what finished.  Another engine's parked read is
                # not this engine's to wait for.
                ctrl.wait_for_die()
                self.drive_device()
                resolved = self.reap_all()
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
        costs roughly one serial command time instead of K.  When no
        queue has fetchable work, the parked reads whose die has
        finished post the same way, min(K, L)-wide over the K queues
        they complete on.  Reads still on their die stay parked.
        """
        e = self.engine
        ctrl = e.ssd.controller
        clock = e.clock
        conc = clock._concurrency
        fetch_lanes = e.fetch_lanes
        # Read once: the controller's heap of commands parked on a die,
        # keyed by ready time (reset and ``delete_sq`` edit it in place).
        parked = ctrl._parked
        # Ready work only: a QoS-throttled tenant's backlog must not make
        # this loop (and with it every tenant's poll) wait out a token
        # refill — throttled queues get serviced once sim time reaches
        # their refill instant.
        while True:
            width = ctrl.sweep_width()
            if width:
                step = ctrl.poll_once
            elif parked and parked[0][0] <= clock.now:
                # Reads whose die has finished post like any other
                # service: overlapped across the queues they complete on.
                step = ctrl.post_parked
                width = ctrl.parked_ready_width()
            else:
                break
            lanes = width if width < fetch_lanes else fetch_lanes
            if lanes == 1 and not conc:
                # One lane divides every advance by 1.0, which is exact:
                # with the lane stack empty there is nothing to push.
                step()
                continue
            # The clock's lane stack divides every advance inside the
            # step by ``lanes`` (>= 1: width > 0 here and fetch_lanes
            # >= 1).
            conc.append(float(lanes))
            try:
                step()
            finally:
                conc.pop()
        # The device ran dry: flush coalesced completions before the
        # reap phase and, under shadow doorbells with no read parked,
        # publish the park record so the host knows when a BAR wake
        # becomes necessary.
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
        entry = e.table._entries.pop((qid, cqe.cid), None)
        if entry is None:
            # A CQE for a command the engine already abandoned (its
            # delayed completion raced our timeout resubmission).  The
            # driver has retired the CID; nothing to resolve.
            e.stats.stale_completions += 1
            return 0
        e.scheduler.note_complete(qid)
        breaker = e.driver.breaker
        if cqe.status == STATUS_SUCCESS:
            # ``record_success()`` is a no-op on a closed breaker with no
            # failure streak, so it is only called when it has work.
            if ((breaker.consecutive_failures
                 or breaker.state != STATE_CLOSED) and entry.is_inline):
                breaker.record_success()
            if entry.read_pages:
                entry.finish_read(cqe, e.driver.memory)
            entry.resolve(cqe, e.clock.now, e._due)
            e.stats.completed += 1
            return 1
        if entry.is_inline and cqe.retryable and breaker.record_failure():
            e.stats.breaker_trips += 1
            e.driver.link.counter.record_event(EVT_BREAKER_TRIP)
        if cqe.retryable and self._park_for_retry(entry):
            return 0
        if entry.read_pages:
            entry.finish_read(None, e.driver.memory)
        entry.resolve(cqe, e.clock.now, e._due)
        e.stats.failed += 1
        return 1

    # ------------------------------------------------------------------
    # timeout recovery
    # ------------------------------------------------------------------
    def _recover_stuck(self) -> int:
        """Handle entries that survived a quiescent drive with no CQE."""
        e = self.engine
        ctrl = e.ssd.controller
        # A command parked on its die is in flight, not stuck: its CQE
        # posts once the die finishes.  When every entry this engine has
        # in flight is parked (a GET burst waiting for its dies), a
        # subset test of the keys, done in C, skips the scan; it stays
        # exact with other engines' commands parked on the same device.
        on_die = ctrl.parked_keys()
        if e.table._entries.keys() <= on_die.keys():
            return 0
        stuck: List["InFlightCommand"] = [
            entry for entry in e.table.entries() if entry.key not in on_die]
        if not stuck:
            return 0
        # First line of defence: republish every affected tail.  This is
        # idempotent and exactly recovers a dropped doorbell write — the
        # SQEs are in host memory, the device just never saw the tail.
        # Entries the re-ring recovers were stalled, not timed out, so
        # they are charged as ``re_rings`` only; timeouts are charged
        # below, to the entries still tabled after the retried drive.
        # A parked (weight-0) queue is not stuck: re-ringing it only
        # burns clock, which hides the wedge from drain's stall check.
        qos = ctrl.qos
        for qid in sorted({entry.key[0] for entry in stuck}):
            if qos is not None and not qos.serviceable(qid):
                continue
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
        on_die = ctrl.parked_keys()
        lost = [entry for entry in e.table.entries()
                if ctrl._pending_on(entry.key[0]) == 0
                and entry.key not in on_die]
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
                entry.resolve(None, e.clock.now, e._due)
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
