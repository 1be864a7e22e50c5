"""QoS arbitration primitives for multi-tenant fetch scheduling.

The fetch unit's doorbell sweep is the one chokepoint every tenant's
commands share, so that is where arbitration lives (the same placement
as the I/O-queues-passthrough design of arXiv 2304.05148: queues map
straight to the controller, isolation is enforced at the arbitration
layer).  Two mechanisms compose:

* **Weighted round-robin** — each sweep visit grants a tenant queue up
  to ``weight`` commands, so relative service under contention tracks
  the weight ratio.  Weight 0 parks the queue entirely (it is skipped,
  and drain loops skip it too); the admin queue is never governed.
* **Token buckets** — ops/sec and bytes/sec budgets refilled on the
  *simulated* clock.  A command is serviced only when both buckets can
  afford it; charges clamp at zero so a budget can never go negative
  (the ``INV_QOS_BUDGET`` monitor invariant).  A command whose byte
  cost exceeds the bucket's whole capacity is allowed when the bucket
  is full — otherwise it could never run and the queue would livelock.

Budgets are per *tenant*, shared across all of the tenant's queues:
a tenant cannot dodge its rate limit by spreading load over queues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.nvme.constants import SQE_SIZE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.clock import SimClock


@dataclass(frozen=True)
class QosParams:
    """One tenant's arbitration parameters.

    ``None`` rates mean unlimited (the bucket is bypassed).  Burst
    capacities bound how far an idle tenant can run ahead of its rate;
    they must be at least 1 so a full bucket always affords one op.
    """

    weight: int = 1
    ops_per_sec: Optional[float] = None
    bytes_per_sec: Optional[float] = None
    burst_ops: int = 32
    burst_bytes: int = 64 * 1024

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError(f"weight must be >= 0, got {self.weight}")
        for name in ("ops_per_sec", "bytes_per_sec"):
            rate = getattr(self, name)
            if rate is not None and rate <= 0:
                raise ValueError(f"{name} must be positive, got {rate}")
        for name in ("burst_ops", "burst_bytes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


class TokenBucket:
    """A token bucket refilled on the simulated clock.

    ``rate_per_sec=None`` disables the bucket (always affordable, never
    charged).  Tokens are clamped to ``[0, capacity]`` at all times.
    """

    __slots__ = ("rate_per_sec", "capacity", "tokens", "_last_ns")

    def __init__(self, rate_per_sec: Optional[float],
                 capacity: float) -> None:
        if capacity < 1:
            raise ValueError("bucket capacity must be >= 1")
        if rate_per_sec is not None and rate_per_sec <= 0:
            raise ValueError("bucket rate must be positive")
        self.rate_per_sec = rate_per_sec
        self.capacity = float(capacity)
        self.tokens = float(capacity)
        self._last_ns = 0.0

    @property
    def full(self) -> bool:
        return self.tokens >= self.capacity

    def refill(self, now_ns: float) -> None:
        """Accrue tokens for the sim time elapsed since the last refill."""
        if self.rate_per_sec is None:
            return
        elapsed = now_ns - self._last_ns
        if elapsed > 0:
            self.tokens = min(self.capacity,
                              self.tokens + self.rate_per_sec * elapsed * 1e-9)
        self._last_ns = now_ns

    def affordable(self, cost: float, now_ns: float) -> bool:
        """Can *cost* be spent?  A full bucket always affords (the
        can-never-afford livelock escape; the charge clamps at zero)."""
        if self.rate_per_sec is None:
            return True
        self.refill(now_ns)
        return self.tokens >= cost or self.full

    def charge(self, cost: float) -> None:
        """Spend *cost* tokens, clamping at zero (never negative)."""
        if self.rate_per_sec is None:
            return
        self.tokens = self.tokens - cost if self.tokens >= cost else 0.0

    def ns_until_affordable(self, cost: float, now_ns: float) -> float:
        """Sim nanoseconds until :meth:`affordable` turns true for
        *cost* — 0.0 if it already is.  Lets an all-throttled sweep
        jump the clock to the next service instant instead of spinning
        one doorbell poll at a time."""
        if self.rate_per_sec is None:
            return 0.0
        self.refill(now_ns)
        # An over-capacity cost becomes affordable at full (the livelock
        # escape), so full is the farthest point ever waited for.
        target = min(cost, self.capacity)
        if self.tokens >= target:
            return 0.0
        return (target - self.tokens) / self.rate_per_sec * 1e9


class TenantBudget:
    """The shared arbitration state of one tenant: its WRR weight and
    its ops/bytes buckets (shared across all the tenant's queues)."""

    __slots__ = ("name", "params", "ops", "bytes")

    def __init__(self, name: str, params: QosParams) -> None:
        self.name = name
        self.params = params
        self.ops = TokenBucket(params.ops_per_sec, float(params.burst_ops))
        self.bytes = TokenBucket(params.bytes_per_sec,
                                 float(params.burst_bytes))

    def min_tokens(self) -> float:
        """The lowest token level across buckets (invariant probing)."""
        return min(self.ops.tokens, self.bytes.tokens)


class QosArbiter:
    """Per-queue arbitration decisions for the fetch unit.

    Installed as ``controller.qos``; the fetch unit consults it for
    every governed I/O queue.  Ungoverned queues (the host's own
    bring-up queues, and always the admin queue) take the stock
    service path untouched.
    """

    def __init__(self, clock: "SimClock") -> None:
        self.clock = clock
        self._budget_of_qid: Dict[int, TenantBudget] = {}
        #: Earliest known instant a denied queue becomes affordable
        #: again (ns from now at denial time); harvested by the
        #: controller's all-throttled idle path via :meth:`take_wait_ns`.
        self._next_wait_ns: Optional[float] = None
        # arbitration stats
        self.grants = 0
        self.denied_weight = 0
        self.denied_ops = 0
        self.denied_bytes = 0

    # -- registration ------------------------------------------------------
    def register(self, qid: int, budget: TenantBudget) -> None:
        if qid in self._budget_of_qid:
            raise ValueError(f"queue {qid} already governed")
        self._budget_of_qid[qid] = budget

    def unregister(self, qid: int) -> None:
        self._budget_of_qid.pop(qid, None)

    def governs(self, qid: int) -> bool:
        return qid in self._budget_of_qid

    def budget_of(self, qid: int) -> Optional[TenantBudget]:
        return self._budget_of_qid.get(qid)

    def budgets(self) -> List[TenantBudget]:
        """Every distinct tenant budget (for invariant sweeps)."""
        seen: List[TenantBudget] = []
        for budget in self._budget_of_qid.values():
            if budget not in seen:
                seen.append(budget)
        return seen

    # -- arbitration (fetch-unit hot path when governed) -------------------
    def serviceable(self, qid: int) -> bool:
        """False only for a parked (weight-0) queue: its pending work
        must not keep drain loops alive."""
        budget = self._budget_of_qid.get(qid)
        return budget is None or budget.params.weight > 0

    def ready(self, qid: int, cost: int = SQE_SIZE) -> bool:
        """Could *qid* be serviced at this very instant?

        Stricter than :meth:`serviceable`: a throttled queue (buckets
        too low for one op of *cost* wire bytes) is
        pending-but-not-ready.  The controller's ``sweep_width``
        ``ready_only`` scan uses this with the *actual* head-of-queue
        cost (``FetchUnit.peek_cost``) so one tenant's polls never
        block on — or silently drain — another tenant's token refill.
        """
        budget = self._budget_of_qid.get(qid)
        if budget is None:
            return True
        if budget.params.weight <= 0:
            return False
        now = self.clock.now
        return (budget.ops.affordable(1, now)
                and budget.bytes.affordable(cost, now))

    def _note_wait(self, wait_ns: float) -> None:
        if wait_ns > 0 and (self._next_wait_ns is None
                            or wait_ns < self._next_wait_ns):
            self._next_wait_ns = wait_ns

    def take_wait_ns(self) -> float:
        """Pop the shortest wait noted by denials since the last call
        (0.0 when nothing was denied for a bucket reason)."""
        wait = self._next_wait_ns or 0.0
        self._next_wait_ns = None
        return wait

    def grant(self, qid: int) -> int:
        """Commands queue *qid* may service on this sweep visit: the WRR
        quantum (= weight), clamped by the ops bucket."""
        budget = self._budget_of_qid[qid]
        weight = budget.params.weight
        if weight <= 0:
            self.denied_weight += 1
            return 0
        ops = budget.ops
        if ops.rate_per_sec is None:
            self.grants += 1
            return weight
        ops.refill(self.clock.now)
        # Capacity >= 1, so a full bucket always grants at least one op.
        allowed = min(weight, int(ops.tokens))
        if allowed <= 0:
            self.denied_ops += 1
            self._note_wait(ops.ns_until_affordable(1, self.clock.now))
        else:
            self.grants += 1
        return allowed

    def allow_bytes(self, qid: int, cost: int) -> bool:
        """May the next command (wire cost *cost* bytes) be serviced?"""
        bucket = self._budget_of_qid[qid].bytes
        if bucket.affordable(cost, self.clock.now):
            return True
        self.denied_bytes += 1
        self._note_wait(bucket.ns_until_affordable(cost, self.clock.now))
        return False

    def charge(self, qid: int, ops: int, nbytes: int) -> None:
        """Debit one service decision (charges clamp at zero)."""
        budget = self._budget_of_qid[qid]
        budget.ops.charge(ops)
        budget.bytes.charge(nbytes)
