"""Runtime protocol monitor: a pluggable observer over the queue stack.

The monitor attaches to live objects — host submission/completion
queues, the controller's device-side CQ producers, the driver's CID
allocator, the shadow-doorbell pages, the engine's in-flight table —
by wrapping their methods *per instance*.  Nothing in the production
code consults the monitor: when it is not attached, the hot path is
byte-for-byte the unmonitored code (zero cost when off).  When it is
attached, every queue transition is checked against the invariants in
:mod:`repro.verify.invariants` and the first illegal transition raises
:class:`InvariantViolation` with a queue-state snapshot.

Checks run *after* the wrapped call, so methods that already enforce a
property (``push_raw`` raising ``LockNotHeldError``, ``DeviceCqState.post``
raising ``CqOverrunError``) keep their exception contract; the monitor
catches the violations those guards would miss.

Attach with ``ProtocolMonitor.attach_testbed(tb)``, or set
``REPRO_VERIFY=1`` in the environment to have every testbed factory do
it automatically (see :func:`repro.verify.maybe_attach`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.chunking import chunk_count
from repro.core.inline_command import (
    MAX_INLINE_BYTES,
    InlineEncodingError,
    inspect_command,
)
from repro.core.reassembly import tagged_chunk_count
from repro.nvme.command import NvmeCommand
from repro.nvme.constants import ADMIN_QID, StatusCode
from repro.ssd.context import MODE_TAGGED
from repro.verify.invariants import (
    INV_CACHE_COHERENT,
    INV_CID_UNIQUE,
    INV_CQ_OVERRUN,
    INV_CQ_PHASE,
    INV_INLINE_SEQ,
    INV_QOS_BUDGET,
    INV_RR_FAIRNESS,
    INV_SHADOW,
    INV_SQ_DOORBELL,
    INV_SQ_WINDOW,
    INV_TENANT_NS,
    INV_TENANT_QUEUE,
    InvariantViolation,
    cq_snapshot,
    ring_delta,
    sq_snapshot,
)

#: Sweeps a pending queue may go unserviced before fairness trips.
DEFAULT_FAIRNESS_BOUND = 3


@dataclass
class _SqState:
    """Monitor-side mirror of one submission queue."""

    sq: Any
    #: Inline payload chunks still expected after the last command.
    pending_chunks: int = 0
    #: Slot of the most recent push (for contiguity checking).
    last_slot: int = -1
    #: Last published doorbell value the monitor saw.
    published: int = 0
    #: The device reassembles this queue's inline payloads from tagged
    #: (self-describing) chunks: its controller runs in tagged mode.
    tagged: bool = False


@dataclass
class _CqState:
    """Monitor-side mirror of one completion-queue ring."""

    host_cq: Any
    #: Device producer mirror (tail slot, phase).
    dev_tail: int = 0
    dev_phase: int = 1
    #: Host consumer mirror (head slot, phase).
    host_head: int = 0
    host_phase: int = 1
    #: Posted-but-unconsumed completions currently in the ring.
    outstanding: int = 0


@dataclass
class _FairnessState:
    """Consecutive unserviced sweeps per pending queue."""

    starved: Dict[int, int] = field(default_factory=dict)


class ProtocolMonitor:
    """Checks every observed queue transition against the invariants.

    ``raise_on_violation=False`` turns the monitor into a recorder:
    violations accumulate in :attr:`violations` instead of raising —
    useful for tooling that wants to report more than the first break.
    ``checks`` counts how many times each invariant was evaluated, so
    tests can assert the monitor actually observed traffic.
    """

    def __init__(self, raise_on_violation: bool = True,
                 fairness_bound: int = DEFAULT_FAIRNESS_BOUND) -> None:
        if fairness_bound < 1:
            raise ValueError("fairness bound must be at least 1")
        self.raise_on_violation = raise_on_violation
        self.fairness_bound = fairness_bound
        self.violations: List[InvariantViolation] = []
        self.checks: Counter = Counter()
        self._patches: List[Tuple[Any, str]] = []
        self._sq: Dict[int, _SqState] = {}
        self._cq: Dict[int, _CqState] = {}
        self._shadow_published: Dict[int, int] = {}
        self._shadow_eventidx: Dict[int, int] = {}
        self._sq_by_qid: Dict[int, Any] = {}

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _violate(self, rule: str, message: str,
                 snapshot: Optional[Dict[str, Any]] = None) -> None:
        violation = InvariantViolation(rule, message, snapshot)
        self.violations.append(violation)
        if self.raise_on_violation:
            raise violation

    def _patch(self, obj: Any, name: str, wrapper: Callable[..., Any]) -> None:
        """Install *wrapper* as an instance attribute shadowing a method."""
        self._patches.append((obj, name))
        object.__setattr__(obj, name, wrapper)

    def detach(self) -> None:
        """Remove every installed wrapper, restoring the class methods."""
        for obj, name in reversed(self._patches):
            try:
                object.__delattr__(obj, name)
            except AttributeError:  # pragma: no cover - already gone
                pass
        self._patches.clear()

    # ------------------------------------------------------------------
    # attachment entry points
    # ------------------------------------------------------------------
    @classmethod
    def attach_testbed(cls, tb: Any, **kwargs: Any) -> "ProtocolMonitor":
        """Attach a fresh monitor to a whole rig (driver + controller)."""
        monitor = cls(**kwargs)
        monitor.attach_driver(tb.driver)
        monitor.attach_controller(tb.ssd.controller)
        return monitor

    def attach_driver(self, driver: Any) -> None:
        """Observe every queue pair the driver owns, CID allocation, and
        the host shadow-doorbell page."""
        tagged = driver.ssd.controller.mode == MODE_TAGGED
        for _qid, res in sorted(driver._queues.items()):
            self.attach_sq(res.sq)
            self._sq[id(res.sq)].tagged = tagged
            self.attach_cq(res.cq)
            self._sq_by_qid[res.sq.qid] = res.sq
        self._wrap_alloc_cid(driver)
        if driver.shadow is not None:
            self.attach_shadow_host(driver.shadow)

    def attach_controller(self, ctrl: Any) -> None:
        """Observe device-side CQ producers, the firmware sweep's
        fairness, and the device's eventidx publications."""
        for qid, state in ctrl._cqs.items():
            self._wrap_device_post(qid, state)
        self._wrap_fairness(ctrl)
        if ctrl._shadow is not None:
            self.attach_shadow_device(ctrl._shadow)

    def attach_engine(self, engine: Any) -> None:
        """Observe the engine's in-flight table for key aliasing."""
        self._wrap_table_add(engine.table)

    def observe_queue_pair(self, qid: int, res: Any, ctrl: Any) -> None:
        """Observe a queue pair created *after* attachment (tenant
        provisioning): host-side SQ/CQ mirrors plus the controller's
        device CQ producer for the new qid."""
        self.attach_sq(res.sq)
        self._sq[id(res.sq)].tagged = ctrl.mode == MODE_TAGGED
        self.attach_cq(res.cq)
        self._sq_by_qid[qid] = res.sq
        dev_state = ctrl._cqs.get(qid)
        if dev_state is not None:
            self._wrap_device_post(qid, dev_state)

    def release_queue(self, qid: int) -> None:
        """Drop the mirrors of a deleted queue pair (tenant teardown).

        The wrappers on the dead queue objects go away with the objects;
        only the monitor's own per-qid state needs forgetting, so a
        later tenant reusing the qid starts from clean mirrors.
        """
        sq = self._sq_by_qid.pop(qid, None)
        if sq is not None:
            self._sq.pop(id(sq), None)
        self._cq.pop(qid, None)
        self._shadow_published.pop(qid, None)
        self._shadow_eventidx.pop(qid, None)

    def attach_service(self, service: Any) -> None:
        """Observe a KV serving front-end's read cache.

        Installs the service's ``on_cache_hit`` hook: every cache hit is
        shadow-read from the device through the personality's
        timing-free ``peek`` chain and compared byte-for-byte — the
        cache-coherence invariant, checked without perturbing the
        simulated clock or any device counter.
        """
        personality = service.personality
        if personality is None:
            raise ValueError(
                "attach_service needs a service bound to its device "
                "personality (KvService(personality=...)) for shadow reads")

        def on_cache_hit(key: bytes, value: bytes) -> None:
            self.checks[INV_CACHE_COHERENT] += 1
            truth = personality.peek(key)
            if truth != value:
                self._violate(
                    INV_CACHE_COHERENT,
                    f"cache hit for key {key.hex()} returned "
                    f"{len(value)} B that differ from the device's "
                    f"current value "
                    f"({'missing' if truth is None else f'{len(truth)} B'})",
                    {"key": key.hex(),
                     "cached_len": len(value),
                     "device_len": None if truth is None else len(truth)})

        self._patch(service, "on_cache_hit", on_cache_hit)

    def attach_virt(self, manager: Any) -> None:
        """Observe a :class:`~repro.virt.TenantManager`: queue
        confinement, namespace isolation at completion, and QoS
        token-bucket soundness."""
        self._wrap_tenant_fetch(manager)
        self._wrap_tenant_complete(manager)
        if manager.arbiter is not None:
            self._wrap_qos_charge(manager.arbiter)

    # ------------------------------------------------------------------
    # submission queue
    # ------------------------------------------------------------------
    def attach_sq(self, sq: Any) -> None:
        state = _SqState(sq=sq, published=sq.shadow_tail)
        self._sq[id(sq)] = state
        self._wrap_push_raw(sq, state)
        self._wrap_ring_doorbell(sq, state)
        self._wrap_note_sq_head(sq, state)

    def _expected_chunks(self, state: _SqState, payload_len: int) -> int:
        if state.tagged:
            return tagged_chunk_count(payload_len)
        return chunk_count(payload_len)

    def _wrap_push_raw(self, sq: Any, state: _SqState) -> None:
        orig = sq.push_raw

        def push_raw(entry: bytes) -> int:
            old_tail = sq.tail
            slot = orig(entry)
            self.checks[INV_SQ_WINDOW] += 1
            if sq.tail != (old_tail + 1) % sq.depth:
                self._violate(
                    INV_SQ_WINDOW,
                    f"SQ{sq.qid} push advanced tail {old_tail}->{sq.tail}, "
                    f"expected one slot", sq_snapshot(sq))
            self.checks[INV_INLINE_SEQ] += 1
            if state.pending_chunks > 0:
                if slot != (state.last_slot + 1) % sq.depth:
                    self._violate(
                        INV_INLINE_SEQ,
                        f"SQ{sq.qid} inline chunk at slot {slot}, expected "
                        f"{(state.last_slot + 1) % sq.depth} (contiguity)",
                        sq_snapshot(sq))
                state.pending_chunks -= 1
                state.last_slot = slot
                return slot
            cmd = NvmeCommand.unpack(entry)
            if cmd.inline_length:
                try:
                    info = inspect_command(cmd)
                except InlineEncodingError:
                    self._violate(
                        INV_INLINE_SEQ,
                        f"SQ{sq.qid} command carries malformed inline "
                        f"length {cmd.inline_length} "
                        f"(max {MAX_INLINE_BYTES})", sq_snapshot(sq))
                    return slot
                state.pending_chunks = self._expected_chunks(
                    state, info.payload_len)
            state.last_slot = slot
            return slot

        self._patch(sq, "push_raw", push_raw)

    def _wrap_ring_doorbell(self, sq: Any, state: _SqState) -> None:
        orig = sq.ring_doorbell

        def ring_doorbell() -> int:
            old = state.published
            tail = orig()
            self.checks[INV_SQ_DOORBELL] += 1
            if state.pending_chunks > 0:
                self._violate(
                    INV_SQ_DOORBELL,
                    f"SQ{sq.qid} doorbell rung with {state.pending_chunks} "
                    f"inline chunk(s) still unwritten (torn sequence "
                    f"published)", sq_snapshot(sq))
            if tail != sq.tail:
                self._violate(
                    INV_SQ_DOORBELL,
                    f"SQ{sq.qid} doorbell published {tail}, host tail is "
                    f"{sq.tail}", sq_snapshot(sq))
            if ring_delta(old, tail, sq.depth) > ring_delta(old, sq.tail,
                                                            sq.depth):
                self._violate(
                    INV_SQ_DOORBELL,
                    f"SQ{sq.qid} doorbell regressed {old}->{tail}",
                    sq_snapshot(sq))
            state.published = tail
            return tail

        self._patch(sq, "ring_doorbell", ring_doorbell)

    def _wrap_note_sq_head(self, sq: Any, state: _SqState) -> None:
        orig = sq.note_sq_head

        def note_sq_head(head: int) -> None:
            window_before = ring_delta(sq.head, sq.tail, sq.depth)
            orig(head)
            self.checks[INV_SQ_WINDOW] += 1
            window_after = ring_delta(sq.head, sq.tail, sq.depth)
            if window_after > window_before:
                self._violate(
                    INV_SQ_WINDOW,
                    f"SQ{sq.qid} accepted head report {head} that grew the "
                    f"in-flight window {window_before}->{window_after} "
                    f"(stale/backwards report applied)", sq_snapshot(sq))

        self._patch(sq, "note_sq_head", note_sq_head)

    # ------------------------------------------------------------------
    # completion queue (host consumer + host-side producer shim)
    # ------------------------------------------------------------------
    def attach_cq(self, cq: Any) -> None:
        state = _CqState(host_cq=cq, dev_tail=cq.device_tail,
                         dev_phase=cq.device_phase, host_head=cq.head,
                         host_phase=cq.phase)
        self._cq[cq.qid] = state
        self._wrap_host_poll(cq, state)
        self._wrap_host_device_post(cq, state)

    def _cq_consumed(self, cq: Any, state: _CqState, phase: int) -> None:
        self.checks[INV_CQ_PHASE] += 1
        if phase != state.host_phase:
            self._violate(
                INV_CQ_PHASE,
                f"CQ{cq.qid} consumed a CQE with phase {phase} at slot "
                f"{state.host_head}, expected phase {state.host_phase}",
                cq_snapshot(cq))
        state.host_head = (state.host_head + 1) % cq.depth
        if state.host_head == 0:
            state.host_phase ^= 1
        if state.outstanding > 0:
            state.outstanding -= 1

    def _wrap_host_poll(self, cq: Any, state: _CqState) -> None:
        orig = cq.poll

        def poll() -> Any:
            cqe = orig()
            if cqe is not None:
                self._cq_consumed(cq, state, cqe.phase)
                if cq.head != state.host_head:
                    self._violate(
                        INV_CQ_PHASE,
                        f"CQ{cq.qid} head {cq.head} diverged from monitor "
                        f"mirror {state.host_head}", cq_snapshot(cq))
            return cqe

        self._patch(cq, "poll", poll)

    def _cq_produced(self, qid: int, state: _CqState, depth: int,
                     phase: int, snapshot: Dict[str, Any]) -> None:
        self.checks[INV_CQ_OVERRUN] += 1
        if state.outstanding >= depth:
            self._violate(
                INV_CQ_OVERRUN,
                f"CQ{qid} posted completion #{state.outstanding + 1} into a "
                f"{depth}-deep ring with none consumed (overwrote a live "
                f"CQE)", snapshot)
        state.outstanding += 1
        self.checks[INV_CQ_PHASE] += 1
        if phase != state.dev_phase:
            self._violate(
                INV_CQ_PHASE,
                f"CQ{qid} produced a CQE with phase {phase} at slot "
                f"{state.dev_tail}, expected phase {state.dev_phase}",
                snapshot)
        state.dev_tail = (state.dev_tail + 1) % depth
        if state.dev_tail == 0:
            state.dev_phase ^= 1

    def _wrap_host_device_post(self, cq: Any, state: _CqState) -> None:
        orig = cq.device_post

        def device_post(cqe: Any) -> int:
            slot = orig(cqe)
            self._cq_produced(cq.qid, state, cq.depth, cqe.phase,
                              cq_snapshot(cq))
            return slot

        self._patch(cq, "device_post", device_post)

    def _wrap_device_post(self, qid: int, dev_state: Any) -> None:
        """Wrap the controller's DeviceCqState producer for CQ *qid*."""
        state = self._cq.get(qid)
        if state is None:
            return  # controller-only queue the host never attached
        # The mirror was seeded from the host-side shim, which never saw
        # posts made before attach (the driver's bring-up admin
        # commands).  Adopt the live producer position, or the phase
        # mirror falsely fires on the queue's first wrap.
        state.dev_tail = dev_state.tail
        state.dev_phase = dev_state.phase
        state.outstanding = (dev_state.tail
                             - state.host_cq.head) % dev_state.depth
        orig = dev_state.post

        def post(cqe: Any, memory: Any) -> None:
            orig(cqe, memory)
            self._cq_produced(qid, state, dev_state.depth, cqe.phase, {
                "qid": qid,
                "depth": dev_state.depth,
                "tail": dev_state.tail,
                "phase": dev_state.phase,
                "host_head": dev_state.host_head,
            })

        self._patch(dev_state, "post", post)

    # ------------------------------------------------------------------
    # CID allocation
    # ------------------------------------------------------------------
    def _wrap_alloc_cid(self, driver: Any) -> None:
        orig = driver._alloc_cid

        def _alloc_cid(res: Any, track: bool = True) -> int:
            live_before = set(res.live_cids)
            zombie_before = set(getattr(res, "zombie_cids", ()))
            cid = orig(res, track)
            self.checks[INV_CID_UNIQUE] += 1
            if cid in live_before:
                self._violate(
                    INV_CID_UNIQUE,
                    f"SQ{res.sq.qid} allocated CID {cid} while it is still "
                    f"in flight", sq_snapshot(res.sq))
            if cid in zombie_before:
                self._violate(
                    INV_CID_UNIQUE,
                    f"SQ{res.sq.qid} allocated CID {cid} inside its "
                    f"abandoned-command quarantine window",
                    sq_snapshot(res.sq))
            return cid

        self._patch(driver, "_alloc_cid", _alloc_cid)

    # ------------------------------------------------------------------
    # engine in-flight table
    # ------------------------------------------------------------------
    def _wrap_table_add(self, table: Any) -> None:
        orig = table.add

        def add(entry: Any) -> None:
            duplicate = (entry.key is not None
                         and table.get(entry.key) is not None)
            orig(entry)
            self.checks[INV_CID_UNIQUE] += 1
            if duplicate:  # pragma: no cover - table.add raises first
                self._violate(
                    INV_CID_UNIQUE,
                    f"in-flight table aliased key {entry.key}",
                    {"key": entry.key})

        self._patch(table, "add", add)

    # ------------------------------------------------------------------
    # shadow doorbells
    # ------------------------------------------------------------------
    def attach_shadow_host(self, shadow: Any) -> None:
        """Observe the host's tail publications into the shadow page."""
        orig = shadow.write_sq_tail

        def write_sq_tail(qid: int, tail: int) -> None:
            orig(qid, tail)
            sq = self._sq_by_qid.get(qid)
            if sq is None:
                return
            self.checks[INV_SHADOW] += 1
            prev = self._shadow_published.get(qid, 0)
            if ring_delta(prev, tail, sq.depth) > ring_delta(prev, sq.tail,
                                                             sq.depth):
                self._violate(
                    INV_SHADOW,
                    f"shadow tail for SQ{qid} moved {prev}->{tail}, past "
                    f"the host tail {sq.tail}", sq_snapshot(sq))
            self._shadow_published[qid] = tail

        self._patch(shadow, "write_sq_tail", write_sq_tail)

    def attach_shadow_device(self, shadow: Any) -> None:
        """Observe the device's eventidx publications."""
        orig = shadow.write_sq_eventidx

        def write_sq_eventidx(qid: int, value: int) -> None:
            orig(qid, value)
            sq = self._sq_by_qid.get(qid)
            if sq is None:
                return
            self.checks[INV_SHADOW] += 1
            prev = self._shadow_eventidx.get(qid, 0)
            published = self._shadow_published.get(qid, sq.shadow_tail)
            if ring_delta(prev, value, sq.depth) > ring_delta(
                    prev, published, sq.depth):
                self._violate(
                    INV_SHADOW,
                    f"device eventidx for SQ{qid} moved {prev}->{value}, "
                    f"claiming consumption past the published tail "
                    f"{published}", sq_snapshot(sq))
            self._shadow_eventidx[qid] = value

        self._patch(shadow, "write_sq_eventidx", write_sq_eventidx)

    # ------------------------------------------------------------------
    # multi-tenant virtualization
    # ------------------------------------------------------------------
    def _wrap_tenant_fetch(self, manager: Any) -> None:
        """Fetch confinement: the sweep only services the admin queue,
        the host's own bring-up queues (snapshotted at attach time), or
        a queue some *currently provisioned* tenant owns."""
        fetch = manager.ctrl.fetch
        orig = fetch.service_queue
        host_qids = frozenset(manager.driver.io_qids)

        def service_queue(qid: int) -> int:
            self.checks[INV_TENANT_QUEUE] += 1
            if (qid != ADMIN_QID and qid not in host_qids
                    and manager.owner_of(qid) is None):
                self._violate(
                    INV_TENANT_QUEUE,
                    f"fetch unit serviced SQ{qid}, which no tenant owns "
                    f"and the host never brought up",
                    {"qid": qid, "host_qids": sorted(host_qids),
                     "tenant_qids": manager.tenant_qids()})
            return orig(qid)

        self._patch(fetch, "service_queue", service_queue)

    def _wrap_tenant_complete(self, manager: Any) -> None:
        """Namespace isolation: a *successful* CQE on a tenant-owned
        queue must carry the owning tenant's nsid — a cross-namespace
        command may only ever complete as a rejection."""
        ctrl = manager.ctrl
        orig = ctrl._complete

        def _complete(qid: int, cmd: Any, result: Any) -> None:
            tenant = manager.owner_of(qid)
            if tenant is not None:
                self.checks[INV_TENANT_NS] += 1
                if (result.status == StatusCode.SUCCESS
                        and cmd.nsid != tenant.nsid):
                    self._violate(
                        INV_TENANT_NS,
                        f"SQ{qid} (tenant {tenant.name!r}, nsid "
                        f"{tenant.nsid}) completed a command with nsid "
                        f"{cmd.nsid} successfully",
                        {"qid": qid, "tenant": tenant.name,
                         "owner_nsid": tenant.nsid, "cmd_nsid": cmd.nsid})
            return orig(qid, cmd, result)

        self._patch(ctrl, "_complete", _complete)

    def _wrap_qos_charge(self, arbiter: Any) -> None:
        """Token-bucket soundness: no budget is ever negative after a
        charge (charges must clamp at zero)."""
        orig = arbiter.charge

        def charge(qid: int, ops: int, nbytes: int) -> None:
            orig(qid, ops, nbytes)
            self.checks[INV_QOS_BUDGET] += 1
            budget = arbiter.budget_of(qid)
            if budget is not None and budget.min_tokens() < 0:
                self._violate(
                    INV_QOS_BUDGET,
                    f"tenant {budget.name!r} budget went negative "
                    f"after a charge of ({ops} ops, {nbytes} bytes)",
                    {"qid": qid, "tenant": budget.name,
                     "ops_tokens": budget.ops.tokens,
                     "bytes_tokens": budget.bytes.tokens})

        self._patch(arbiter, "charge", charge)

    # ------------------------------------------------------------------
    # round-robin fairness
    # ------------------------------------------------------------------
    def _wrap_fairness(self, ctrl: Any) -> None:
        orig = ctrl.poll_once
        state = _FairnessState()

        def pending(qid: int) -> int:
            sq = ctrl._sqs.get(qid)
            if sq is None:
                return 0
            return ((ctrl._sq_tails.get(qid, sq.head) - sq.head) % sq.depth
                    + ctrl._pending_chunks.get(qid, 0))

        def poll_once() -> int:
            before = {qid: pending(qid) for qid in list(ctrl._sqs)}
            done = orig()
            self.checks[INV_RR_FAIRNESS] += 1
            qos = ctrl.qos
            for qid, had in before.items():
                if qos is not None and qos.governs(qid):
                    # Throttled by design, not starved: QoS-governed
                    # queues are exempt (admin stays enforced — it is
                    # never governed).
                    state.starved.pop(qid, None)
                    continue
                if had <= 0:
                    state.starved.pop(qid, None)
                    continue
                if pending(qid) < had:
                    state.starved.pop(qid, None)
                    continue
                count = state.starved.get(qid, 0) + 1
                state.starved[qid] = count
                if count >= self.fairness_bound:
                    self._violate(
                        INV_RR_FAIRNESS,
                        f"SQ{qid} had {had} doorbell'd command(s) pending "
                        f"and was skipped for {count} consecutive firmware "
                        f"sweeps",
                        {"qid": qid, "pending": had, "sweeps": count})
            return done

        self._patch(ctrl, "poll_once", poll_once)

    # ------------------------------------------------------------------
    # summary
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, int]:
        """Check counts per rule plus the violation total (reporting)."""
        out = {rule: int(count) for rule, count in sorted(self.checks.items())}
        out["violations"] = len(self.violations)
        return out
