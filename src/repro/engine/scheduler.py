"""Multi-queue submission scheduler with per-queue QD caps.

Owns the engine's view of its N queue pairs and decides where each new
command goes.  Three placement policies:

``round_robin``
    Rotate over the queue set, skipping queues at their QD cap — the
    stock blk-mq behaviour for untagged requests.
``least_inflight``
    Place on the queue with the fewest outstanding commands (ties break
    to the earliest queue in the set) — join-the-shortest-queue, best
    for heterogeneous command costs.
``affinity``
    Pin each client stream to ``qids[stream % N]`` — models per-core
    queue affinity, and is what keeps ByteExpress's queue-local chunk
    fetching meaningful when many streams share the engine.  Strict: if
    the stream's queue is saturated the scheduler reports backpressure
    rather than spilling onto a foreign queue.

A ``None`` pick means *backpressure*: every eligible queue is at its QD
cap (or cannot hold the submission's SQE footprint).  The engine reacts
by reaping completions, not by queueing unboundedly.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

POLICIES = ("round_robin", "least_inflight", "affinity")


class SchedulerError(Exception):
    """Invalid scheduler configuration or accounting misuse."""


class MultiQueueScheduler:
    """Placement of submissions across N queue pairs under QD caps."""

    def __init__(self, qids: Sequence[int], qd_cap: int,
                 policy: str = "round_robin") -> None:
        if not qids:
            raise SchedulerError("scheduler needs at least one queue")
        if len(set(qids)) != len(qids):
            raise SchedulerError(f"duplicate qids: {list(qids)}")
        if qd_cap < 1:
            raise SchedulerError(f"qd_cap must be >= 1, got {qd_cap}")
        if policy not in POLICIES:
            raise SchedulerError(
                f"unknown policy {policy!r}; expected one of {POLICIES}")
        self.qids: List[int] = list(qids)
        self.qd_cap = qd_cap
        self.policy = policy
        self.inflight: Dict[int, int] = {qid: 0 for qid in self.qids}
        self._nqids = len(self.qids)
        self._rr_next = 0
        #: Picks that found no eligible queue (backpressure events).
        self.rejections = 0

    # ------------------------------------------------------------------
    def _eligible(self, qid: int,
                  fits: Optional[Callable[[int], bool]]) -> bool:
        if self.inflight[qid] >= self.qd_cap:
            return False
        return fits(qid) if fits is not None else True

    def pick(self, stream: Optional[int] = None,
             fits: Optional[Callable[[int], bool]] = None) -> Optional[int]:
        """Choose a queue for one submission, or ``None`` on backpressure.

        *fits(qid)* lets the caller veto queues that cannot hold the
        submission's SQE footprint (an inline command plus its chunks
        needs contiguous SQ slots; a QD cap alone cannot see that).
        """
        if self.policy == "affinity":
            if stream is None:
                raise SchedulerError(
                    "affinity policy requires a stream id on every pick")
            qid = self.qids[stream % len(self.qids)]
            if self._eligible(qid, fits):
                return qid
            self.rejections += 1
            return None

        if self.policy == "least_inflight":
            best: Optional[int] = None
            for qid in self.qids:
                if not self._eligible(qid, fits):
                    continue
                if best is None or self.inflight[qid] < self.inflight[best]:
                    best = qid
            if best is None:
                self.rejections += 1
            return best

        # round_robin: first eligible queue after the rotation cursor;
        # the cursor advances past the chosen queue so consecutive picks
        # spread across the set even when all queues are eligible.
        # (Eligibility is inlined from ``_eligible`` — this loop runs
        # once per submission.)
        qids = self.qids
        inflight = self.inflight
        cap = self.qd_cap
        n = self._nqids
        start = self._rr_next
        for i in range(n):
            idx = (start + i) % n
            qid = qids[idx]
            if inflight[qid] >= cap:
                continue
            if fits is not None and not fits(qid):
                continue
            self._rr_next = (idx + 1) % n
            return qid
        self.rejections += 1
        return None

    # ------------------------------------------------------------------
    def note_submit(self, qid: int) -> None:
        if qid not in self.inflight:
            raise SchedulerError(f"qid {qid} is not owned by this scheduler")
        self.inflight[qid] += 1

    def note_complete(self, qid: int) -> None:
        if self.inflight.get(qid, 0) <= 0:
            raise SchedulerError(
                f"completion accounting underflow on qid {qid}")
        self.inflight[qid] -= 1
