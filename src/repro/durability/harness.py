"""Crash-and-recover harness: cut the power mid-workload, then prove it.

One :func:`run_crash` call is one experiment: build a fresh rig, arm a
seeded :class:`~repro.faults.plan.CrashPlan` on the rig's fault
injector, drive an acknowledged-write workload until the cut fires,
then run the power-loss sequence —

1. **the cut** — :class:`~repro.faults.plan.CrashCut` propagates out of
   whatever protocol action the plan named (a TLP crossing the link, a
   doorbell publication, a CQE posting);
2. **power loss** — :meth:`DurabilityMap.crash` scrubs both volatile
   domains in place.  With power-loss protection (``plp=True``) the
   capacitor first flushes the active value-log segment and a fresh
   metadata checkpoint is journaled; without it the device boots from
   its last (stale) checkpoint;
3. **reboot** — controller reset + a fresh :class:`NvmeDriver` bring-up
   (admin queue, IDENTIFY, I/O queue creation), exactly the factory
   path, re-registering host state under the same durability names;
4. **recovery** — personality-level replay (the KV personality scrubs
   its index in place and replays flushed value-log segments up to the
   durable watermark);
5. **verification** — every operation whose completion the host
   observed *before* the cut is checked against a timing-free oracle
   (:meth:`KvSsdPersonality.peek` / :meth:`BlockSsdPersonality.read_back`).
   A missing or wrong acked write is an ``INV_DURABLE_ACK`` violation;
   structurally torn recovered state (an unparseable flushed segment, an
   index pointer past the durable watermark) is ``INV_NO_TORN_STATE``.
   Under ``REPRO_VERIFY=1`` violations raise; otherwise they are
   recorded on the returned :class:`CrashReport`.

At QD 1 an op's ack is its synchronous write's status.  At QD>1 the
workload runs through an :class:`~repro.engine.IoEngine` on one queue,
and an op is acked iff its future resolved OK before the cut: acks are
observed per reaped CQE batch, not per CQE.

The harness only ever *arms* the injector around the workload phase —
recovery traffic runs disarmed, and a rig that never arms a crash pays
nothing (the golden traffic fingerprints stay byte-identical).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro import datapath
from repro.datapath import names as dp_names
from repro.faults.plan import CUT_KINDS, CrashCut, CrashPlan
from repro.nvme.constants import PAGE_SIZE, IoOpcode, KvOpcode, StatusCode
from repro.ssd.ftl import FtlError
from repro.ssd.nand import NandError

PLANE_BLOCK = "block"
PLANE_KV = "kv"
PLANES: Tuple[str, ...] = (PLANE_BLOCK, PLANE_KV)


@dataclass(frozen=True)
class CrashSpec:
    """One crash experiment: workload shape + where the power dies.

    ``cut=None`` runs the same workload uncut — the control arm the
    matrix uses to prove the harness itself loses nothing.  ``plp``
    models capacitor-backed power-loss protection: on a cut the active
    value-log segment is flushed and fresh metadata journaled before
    volatile state dies.  ``plp=False`` is the deliberately lossy
    negative arm — the device reboots from its boot-time checkpoint, so
    acknowledged-but-unflushed KV writes *must* be reported lost (the
    ``INV_DURABLE_ACK`` trip test).
    """

    plane: str = PLANE_BLOCK
    method: str = dp_names.BYTEEXPRESS
    qd: int = 1
    ops: int = 16
    payload_bytes: int = 512
    cut: Optional[CrashPlan] = None
    plp: bool = True

    def __post_init__(self) -> None:
        if self.plane not in PLANES:
            raise ValueError(f"unknown plane {self.plane!r}; "
                             f"pick from {PLANES}")
        if self.qd < 1:
            raise ValueError("qd must be at least 1")
        if self.ops < 1:
            raise ValueError("ops must be at least 1")
        if self.payload_bytes < 1:
            raise ValueError("payload_bytes must be at least 1")
        # An unknown method raises UnknownMethodError, a ValueError.
        codec = datapath.resolve(self.method).host_codec
        if self.qd > 1 and codec is None:
            raise ValueError(f"{self.method!r} has no host codec: BAR-window "
                             f"and layered paths are synchronous and have "
                             f"no QD>1 submission mode")

    def label(self) -> str:
        cut = (f"{self.cut.cut_kind}@{self.cut.cut_index}"
               if self.cut else "uncut")
        plp = "plp" if self.plp else "noplp"
        return (f"{self.plane}/{self.method}/qd{self.qd}/"
                f"{self.payload_bytes}B/{cut}/{plp}")


@dataclass
class CrashReport:
    """What one crash experiment observed, end to end."""

    label: str
    cut_kind: Optional[str]
    cut_index: Optional[int]
    #: Whether the armed cut actually fired (an uncut control run, or a
    #: cut index past the workload's opportunity count, leaves it False).
    cut_fired: bool = False
    issued: int = 0
    #: Operations whose completion the host observed before the cut.
    acked: int = 0
    #: Acked operations the post-recovery oracle could not verify —
    #: the INV_DURABLE_ACK evidence.  Op labels, not indices.
    lost: List[str] = field(default_factory=list)
    #: Structural-integrity failures found in recovered state — the
    #: INV_NO_TORN_STATE evidence.
    torn: List[str] = field(default_factory=list)
    #: Durability-map entries scrubbed at the cut (empty when no cut).
    scrubbed: List[str] = field(default_factory=list)
    #: Live keys replayed from the value log (KV plane; 0 for block).
    recovered_keys: int = 0
    #: Simulated time from the cut to the end of recovery.
    recovery_ns: float = 0.0
    #: Cut opportunities of the armed kind the workload offered (0 when
    #: uncut).  The matrix probes with an unreachable index to learn the
    #: bound, then seeds real indices strictly inside it.
    opportunities: int = 0
    #: Simulated clock at the end of the run (workload + recovery).
    total_ns: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.lost and not self.torn

    def to_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "cut_kind": self.cut_kind,
            "cut_index": self.cut_index,
            "cut_fired": self.cut_fired,
            "issued": self.issued,
            "acked": self.acked,
            "lost": list(self.lost),
            "torn": list(self.torn),
            "scrubbed_entries": len(self.scrubbed),
            "recovered_keys": self.recovered_keys,
            "recovery_ns": self.recovery_ns,
            "opportunities": self.opportunities,
            "total_ns": self.total_ns,
            "ok": self.ok,
        }


def _pattern(op: int, nbytes: int) -> bytes:
    """Deterministic per-op payload: distinguishable, seed-free."""
    return bytes(((op * 131 + j * 7 + 23) & 0xFF) for j in range(nbytes))


class _BlockPlane:
    """Block personality adapter: one 512 B-class write per logical page.

    The functional medium is PERSISTENT (the handler applies the write
    before the CQE is posted), so *every* acked block write must survive
    *any* cut — the zero-loss half of the matrix.
    """

    opcode = IoOpcode.WRITE

    def __init__(self, tb: Any, spec: CrashSpec) -> None:
        self.tb = tb
        self.spec = spec

    def op_label(self, op: int) -> str:
        return f"write@{op * PAGE_SIZE:#x}"

    def payload(self, op: int) -> bytes:
        return _pattern(op, self.spec.payload_bytes)

    def write_kwargs(self, op: int) -> Dict[str, int]:
        return {"opcode": int(self.opcode), "cdw10": op * PAGE_SIZE}

    def plp_flush(self) -> None:
        if self.tb.ssd.nand_enabled:
            self.tb.ssd.nand.drain()

    def recover(self) -> int:
        return 0

    def verify(self, op: int) -> bool:
        got = self.tb.personality.read_back(op * PAGE_SIZE,
                                            self.spec.payload_bytes)
        return got == self.payload(op)

    def torn_checks(self) -> List[str]:
        """The medium keeps each page as an extent, its bytes up to the
        highest one written: a short extent is legal (reads pad it with
        zeros), one longer than a page is torn."""
        # The public ``stored_bytes`` only sums the extents; no public
        # view lists them.
        return [f"medium page {lpn} extent is {len(extent)} B, "
                f"past its {PAGE_SIZE} B page"
                for lpn, extent in self.tb.personality._pages.items()
                if len(extent) > PAGE_SIZE]


class _KvPlane:
    """KV personality adapter: STORE commands, peek-oracle verification.

    Keys self-describe inside the payload, so the adapter works for
    every datapath — including the BAR-window paths whose device half
    does not carry command dwords (``mmio``/``pio_coherent``).
    """

    opcode = KvOpcode.STORE

    def __init__(self, tb: Any, spec: CrashSpec) -> None:
        self.tb = tb
        self.spec = spec

    def key(self, op: int) -> bytes:
        return f"crash-{op:06d}".encode()

    def value(self, op: int) -> bytes:
        return _pattern(op, self.spec.payload_bytes)

    def op_label(self, op: int) -> str:
        return f"store[{self.key(op).decode()}]"

    def payload(self, op: int) -> bytes:
        from repro.kvssd.commands import encode_store_payload

        return encode_store_payload(self.key(op), self.value(op))

    def write_kwargs(self, op: int) -> Dict[str, int]:
        return {"opcode": int(self.opcode)}

    def plp_flush(self) -> None:
        self.tb.personality.vlog.flush()
        self.tb.ssd.nand.drain()

    def recover(self) -> int:
        return self.tb.personality.recover()

    def verify(self, op: int) -> bool:
        return self.tb.personality.peek(self.key(op)) == self.value(op)

    def torn_checks(self) -> List[str]:
        torn = []
        vlog = self.tb.personality.vlog
        durable = set(vlog.flushed_segments)
        for segment in sorted(durable):
            try:
                vlog.parse_segment(segment)
            except (FtlError, NandError, KeyError, struct.error) as exc:
                torn.append(f"flushed segment {segment} unparseable: {exc}")
        # Every index pointer must land inside the durable watermark:
        # recovery replays only flushed segments, so a pointer into the
        # (scrubbed) active buffer is dangling by construction.
        index = self.tb.personality.index
        for key, ptr in index.scan(b"\x00"):
            if ptr.segment not in durable:
                torn.append(f"index[{key!r}] points at segment "
                            f"{ptr.segment}, past the durable watermark")
        return torn


def _make_plane(tb: Any, spec: CrashSpec) -> Union["_BlockPlane", "_KvPlane"]:
    if spec.plane == PLANE_BLOCK:
        return _BlockPlane(tb, spec)
    return _KvPlane(tb, spec)


def make_crash_testbed(spec: CrashSpec) -> Any:
    """Build the rig *spec* runs on (block: NAND off; KV: NAND on)."""
    # Imported lazily: the testbed pulls in the driver and the full
    # transfer suite, and repro.durability must stay importable from
    # any of those modules without a cycle.
    from repro.testbed import make_block_testbed, make_kv_testbed

    include_mmio = datapath.resolve(spec.method).caps.bar_window
    if spec.plane == PLANE_KV:
        tb = make_kv_testbed(include_mmio=include_mmio)
    else:
        tb = make_block_testbed(include_mmio=include_mmio)
    if spec.method not in tb.methods:
        raise ValueError(f"method {spec.method!r} unavailable on the "
                         f"{spec.plane} rig; have {sorted(tb.methods)}")
    return tb


def _issue_qd1(tb: Any, plane: Union["_BlockPlane", "_KvPlane"],
               spec: CrashSpec, report: "CrashReport",
               acked: Set[int]) -> None:
    """Synchronous loop: one write, one observed status, per op.

    Progress lands on *report* in place — a :class:`CrashCut` aborts
    the loop at an arbitrary point and must not discard the tally.
    """
    method = tb.method(spec.method)
    for op in range(spec.ops):
        report.issued += 1
        stats = method.write(plane.payload(op), **plane.write_kwargs(op))
        if stats.status == StatusCode.SUCCESS:
            acked.add(op)


def _issue_engine(tb: Any, plane: Union["_BlockPlane", "_KvPlane"],
                  spec: CrashSpec, report: "CrashReport",
                  acked: Set[int]) -> None:
    """QD>1 loop: one ``IoEngine.submit`` per op, then one drain.

    An op is issued once its ``submit`` returned and acked iff its
    future resolved OK; the ``finally`` tallies both when a
    :class:`CrashCut` aborts a backpressure poll or the drain.
    """
    from repro.engine import IoEngine

    engine = IoEngine(tb.ssd, tb.driver, queues=tb.driver.io_qids[:1],
                      qd=spec.qd)
    futures = []
    try:
        for op in range(spec.ops):
            futures.append(engine.submit(plane.payload(op),
                                         method=spec.method,
                                         **plane.write_kwargs(op)))
        engine.drain()
    finally:
        report.issued = len(futures)
        acked.update(op for op, future in enumerate(futures) if future.ok)


def _reboot_host(tb: Any) -> None:
    """Fresh driver bring-up over the scrubbed device — the factory
    path, re-registering host queues under their durability names."""
    from repro.host.driver import NvmeDriver
    from repro.transfer import make_methods

    include_mmio = any(name in tb.methods
                       for name in datapath.method_names(bar_window=True))
    tb.driver = NvmeDriver(tb.ssd)
    tb.methods = make_methods(tb.ssd, tb.driver, include_mmio=include_mmio)


def run_crash(spec: CrashSpec, tb: Any = None) -> CrashReport:
    """Run one crash experiment end to end; returns its report.

    Pass *tb* to reuse a pre-built rig (it must match *spec*'s plane and
    method roster); the rig is consumed — after a cut it has been
    crashed and rebooted.  QD>1 acks an op iff its engine future
    resolved OK before the cut (per reaped CQE batch, not per CQE).  Under ``REPRO_VERIFY=1`` a durability
    violation raises :class:`~repro.verify.InvariantViolation`
    (``INV_DURABLE_ACK`` / ``INV_NO_TORN_STATE``) instead of merely
    filling in the report.
    """
    from repro.verify import (
        INV_DURABLE_ACK,
        INV_NO_TORN_STATE,
        InvariantViolation,
        verification_enabled,
    )

    if spec.cut is not None and spec.cut.cut_kind not in CUT_KINDS:
        raise ValueError(f"unknown cut kind {spec.cut.cut_kind!r}")
    if tb is None:
        tb = make_crash_testbed(spec)
    # The protocol monitor tracks *live* queue objects; a power cut
    # tears mid-transition by design and the reboot replaces the host
    # queues wholesale, so it must not referee this run.  The
    # durability invariants are armed by this function instead.
    tb.unmonitor()
    plane = _make_plane(tb, spec)
    ssd = tb.ssd

    # The boot-time journal image: what a no-PLP device re-reads after
    # a cut.  Mid-run auto-flushes may have programmed NAND since, but
    # without PLP the metadata journal was never rewritten — the stale
    # watermark is exactly how such devices lose acknowledged writes.
    boot_checkpoint = ssd.durability.checkpoint()

    report = CrashReport(
        label=spec.label(),
        cut_kind=spec.cut.cut_kind if spec.cut else None,
        cut_index=spec.cut.cut_index if spec.cut else None)
    acked: Set[int] = set()

    if spec.cut is not None:
        ssd.faults.arm_crash(spec.cut)
    try:
        if spec.qd == 1:
            _issue_qd1(tb, plane, spec, report, acked)
        else:
            _issue_engine(tb, plane, spec, report, acked)
    except CrashCut:
        report.cut_fired = True
    finally:
        if spec.cut is not None:
            report.opportunities = int(
                ssd.faults.crash_opportunities[spec.cut.cut_kind])
        ssd.faults.disarm_crash()
    report.acked = len(acked)

    if report.cut_fired:
        cut_ns = ssd.clock.now
        if spec.plp:
            # Capacitor-backed flush + a fresh metadata journal: the
            # durable watermark advances to cover everything acked.
            plane.plp_flush()
            checkpoint = ssd.durability.checkpoint()
        else:
            checkpoint = boot_checkpoint
        report.scrubbed = ssd.durability.crash(checkpoint)
        if ssd.nand_enabled:
            # The journal is older than the NAND array's program state;
            # realign the FTL's write cursors with the physical truth.
            ssd.ftl.resync_with_nand()
        _reboot_host(tb)
        report.recovered_keys = plane.recover()
        report.recovery_ns = ssd.clock.now - cut_ns
        report.torn = plane.torn_checks()

    report.lost = [plane.op_label(op) for op in sorted(acked)
                   if not plane.verify(op)]
    report.total_ns = ssd.clock.now

    if verification_enabled():
        if report.lost:
            raise InvariantViolation(
                INV_DURABLE_ACK,
                f"{len(report.lost)} acknowledged write(s) lost across "
                f"the cut: {report.lost[:3]}",
                snapshot={"run": report.label, "acked": report.acked,
                          "lost": len(report.lost)})
        if report.torn:
            raise InvariantViolation(
                INV_NO_TORN_STATE,
                f"recovered state is torn: {report.torn[:3]}",
                snapshot={"run": report.label,
                          "torn": len(report.torn)})
    return report
