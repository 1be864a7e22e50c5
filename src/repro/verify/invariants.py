"""Protocol invariants: the rules the queue machinery must never break.

ByteExpress's soundness argument (paper §3.3) rests on properties the
simulator enforces only implicitly — the SQ lock keeps a command and its
inline chunks contiguous, the CQ phase bit alternates exactly once per
wrap, a CID names at most one outstanding command, doorbell publications
never regress.  Durable-queue recovery work (Sela & Petrank) and the
NVMe-virtualisation passthrough study (Chen et al., arXiv:2304.05148)
both show that *queue-state mirroring* is where post-hoc recovery code
silently goes wrong; this module gives each such property a name, a
structured violation type, and a snapshot format so the runtime monitor
(:mod:`repro.verify.monitor`) can report exactly which rule broke and
what the queue looked like when it did.

Rule codes (each maps to a paper mechanism; see ``docs/verify.md``):

==================  =====================================================
code                invariant
==================  =====================================================
INV_SQ_WINDOW       SQ head/tail legality: the in-flight window
                    ``(head .. tail]`` only shrinks on head reports and
                    grows by exactly one slot per push; the tail never
                    wraps past the head (paper §3.3.2, queue protocol).
INV_SQ_DOORBELL     SQ doorbell publication is monotone in ring order,
                    equals the host tail, and never lands inside an
                    unfinished inline sequence (§3 ordering argument).
INV_CQ_PHASE        CQ phase bit alternation: entries produced in wrap
                    *k* all carry phase ``1 ^ (k & 1)``; the consumer
                    only accepts the phase it expects (NVMe §4.6).
INV_CQ_OVERRUN      The device never posts more unconsumed completions
                    than the CQ can hold (would overwrite live CQEs).
INV_CID_UNIQUE      A CID names at most one in-flight command per queue
                    (aliased CIDs make CQEs ambiguous).
INV_INLINE_SEQ      ByteExpress inline sequences are well formed: the
                    length field agrees with the chunk count and chunks
                    occupy consecutive slots after their command
                    (§3.3.1, challenge #1 + #2).
INV_SHADOW          Shadow-doorbell consistency: published tails are
                    monotone, and the device's eventidx never claims
                    consumption past the published tail (NVMe 1.3 DBBUF).
INV_RR_FAIRNESS     Round-robin service fairness: a queue with
                    doorbell'd work is serviced within a bounded number
                    of firmware sweeps (§4.2 service model).  Queues
                    governed by a QoS arbiter are exempt — being
                    throttled is their design, not starvation.
INV_TENANT_QUEUE    Tenant queue confinement: the fetch unit only
                    services queues that are host-owned or currently
                    allocated to a tenant (no fetches from a queue
                    outside its tenant's allocation).
INV_TENANT_NS       Namespace isolation: every successfully completed
                    command on a tenant-owned queue carries the owning
                    tenant's nsid (cross-namespace access must have
                    been rejected, never serviced).
INV_QOS_BUDGET      Token-bucket soundness: no tenant budget ever goes
                    negative — charges clamp at zero.
INV_CACHE_COHERENT  Serving-cache coherence: every value the KV serving
                    layer's read cache returns equals a timing-free
                    shadow read of the device's current state — a cache
                    hit is never older than the session's last
                    acknowledged write (invalidate-before-ack).
INV_DURABLE_ACK     Acknowledged-write durability: every write-class
                    command whose completion the host observed before a
                    power cut is readable, with the acknowledged
                    contents, after crash recovery (the durability
                    contract a CQE implies; ``repro.durability``).
INV_NO_TORN_STATE   Recovery structural integrity: after a crash cut,
                    recovered state parses cleanly — flushed value-log
                    segments decode end to end, the rebuilt index only
                    points at durable entries, and volatile domains hold
                    no pre-crash residue (no torn half-state).
==================  =====================================================
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

INV_SQ_WINDOW = "INV_SQ_WINDOW"
INV_SQ_DOORBELL = "INV_SQ_DOORBELL"
INV_CQ_PHASE = "INV_CQ_PHASE"
INV_CQ_OVERRUN = "INV_CQ_OVERRUN"
INV_CID_UNIQUE = "INV_CID_UNIQUE"
INV_INLINE_SEQ = "INV_INLINE_SEQ"
INV_SHADOW = "INV_SHADOW"
INV_RR_FAIRNESS = "INV_RR_FAIRNESS"
INV_TENANT_QUEUE = "INV_TENANT_QUEUE"
INV_TENANT_NS = "INV_TENANT_NS"
INV_QOS_BUDGET = "INV_QOS_BUDGET"
INV_CACHE_COHERENT = "INV_CACHE_COHERENT"
INV_DURABLE_ACK = "INV_DURABLE_ACK"
INV_NO_TORN_STATE = "INV_NO_TORN_STATE"

#: Every rule the monitor can report, with a one-line description.
ALL_RULES: Dict[str, str] = {
    INV_SQ_WINDOW: "SQ head/tail window legality (no wrap past head)",
    INV_SQ_DOORBELL: "SQ doorbell monotone, tail-accurate, sequence-safe",
    INV_CQ_PHASE: "CQ phase-bit alternation per wrap",
    INV_CQ_OVERRUN: "CQ never overwrites unconsumed completions",
    INV_CID_UNIQUE: "CID uniqueness among in-flight commands",
    INV_INLINE_SEQ: "inline chunk contiguity + length-field agreement",
    INV_SHADOW: "shadow doorbell / eventidx consistency",
    INV_RR_FAIRNESS: "bounded round-robin service fairness",
    INV_TENANT_QUEUE: "fetches confined to host- or tenant-owned queues",
    INV_TENANT_NS: "completed tenant commands carry the owner's nsid",
    INV_QOS_BUDGET: "QoS token buckets never go negative",
    INV_CACHE_COHERENT: "serving-cache hits match a device shadow read",
    INV_DURABLE_ACK: "acknowledged writes survive a power cut + recovery",
    INV_NO_TORN_STATE: "recovered state is structurally whole (no torn "
                       "half-state)",
}


class InvariantViolation(Exception):
    """A protocol invariant was broken; carries a queue-state snapshot.

    ``rule`` is one of the ``INV_*`` codes above, ``snapshot`` a mapping
    of the relevant queue state at the instant of the violation —
    enough to reconstruct the illegal transition without a debugger.
    """

    def __init__(self, rule: str, message: str,
                 snapshot: Optional[Mapping[str, Any]] = None) -> None:
        if rule not in ALL_RULES:
            raise ValueError(f"unknown invariant rule {rule!r}")
        self.rule = rule
        self.message = message
        self.snapshot: Dict[str, Any] = dict(snapshot or {})
        super().__init__(self._format())

    def _format(self) -> str:
        text = f"{self.rule}: {self.message}"
        if self.snapshot:
            state = ", ".join(f"{k}={v!r}"
                              for k, v in sorted(self.snapshot.items()))
            text = f"{text} [{state}]"
        return text


def ring_delta(frm: int, to: int, depth: int) -> int:
    """Forward distance from *frm* to *to* on a ring of *depth* slots."""
    return (to - frm) % depth


def sq_snapshot(sq: Any) -> Dict[str, Any]:
    """Host submission-queue state, as carried inside violations."""
    return {
        "qid": sq.qid,
        "depth": sq.depth,
        "head": sq.head,
        "tail": sq.tail,
        "shadow_tail": sq.shadow_tail,
        "lock_held": sq.lock.held,
    }


def cq_snapshot(cq: Any) -> Dict[str, Any]:
    """Host completion-queue state, as carried inside violations."""
    return {
        "qid": cq.qid,
        "depth": cq.depth,
        "head": cq.head,
        "phase": cq.phase,
    }
