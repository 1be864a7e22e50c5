"""The benchmark's four workloads.

Each workload builds a fresh rig per repetition (that is the set-up the
benchmark times), runs a fixed number of operations through it in one
or more measured windows, and then verifies every acknowledged write.
All inputs derive from the workload seed, so one seed gives the same
operations — and the same simulated results — on every run.

* ``engine_inline``  — ``IoEngine``, 4 queues x QD 8, 4 streams,
  ByteExpress, MixGraph sizes up to 4 KiB, NAND off.
* ``engine_faulted`` — the same cell under a seeded ``FaultPlan``
  (0.05 % per opportunity on four kinds): recovery paths are hot.
* ``passthru_qd1``   — synchronous ``TransferMethod.write`` at QD 1,
  round-robin over prp, bandslim and byteexpress (Table 1, Fig 5).
* ``kv_serving``     — ``KvService`` with group commit and a read
  cache, 256 closed-loop sessions, 90 % GETs, NAND on.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.engine import LoadGenerator, StreamSpec
from repro.faults import FaultPlan
from repro.nvme.constants import PAGE_SIZE
from repro.pcie import traffic
from repro.sim.rng import make_rng, random_bytes
from repro.testbed import make_block_testbed, make_engine_testbed, make_kv_testbed
from repro.workloads.mixgraph import sample_value_sizes
from repro.workloads.serving import session_key, session_ops

from reference import Meter

#: Operations per timed slice of a measured window (a few ms of work);
#: the meter runs one reference step after each (see ``reference.py``).
SLICE_OPS = 128

#: Operations per block-workload window.  Well above 10,000, so that at
#: least ten samples lie beyond the p99.9 even where latencies tie.
BLOCK_OPS = 16_384
MAX_SIZE = 4096

ENGINE_QUEUES = 4
ENGINE_QD = 8
ENGINE_STREAMS = 4

#: Per-opportunity fault probability.  One fault can delay every write
#: queued behind it, so the share of ops on a recovery path varies from
#: seed to seed.  At 0.05 % it stays well between 0.1 % and 1 %: p99
#: sits on the fault-free latency plateau and p99.9 on the recovery one.
#: At 0.1 % or 0.2 % p99 jumps between the two from seed to seed.
FAULT_RATE = 0.0005
FAULT_KINDS = ("drop_doorbell", "drop_cqe", "corrupt_chunk", "corrupt_tlp")

PASSTHRU_METHODS = ("prp", "bandslim", "byteexpress")

KV_SESSIONS = 256
#: Six short windows per rig: set-up and verification cost more than a
#: window, so a rig serves several.
KV_WINDOWS = 6
KV_OPS_PER_WINDOW = 20
#: Cache warm-up ops per session, run before the first window.
KV_WARMUP_OPS_PER_SESSION = 40
#: 32,768 keys, four times the cache: after warm-up about a third of
#: the ops are cache hits (charged no simulated time), so the median
#: op reaches the device.
KV_KEYS_PER_SESSION = 128
KV_READ_RATIO = 0.9
KV_QD = 32
KV_BATCH_WINDOW_NS = 4000.0
KV_BATCH_MAX_PAIRS = 32
KV_CACHE_ENTRIES = 8192

TLP_CATEGORIES = (
    traffic.CAT_DOORBELL, traffic.CAT_CMD_FETCH, traffic.CAT_DATA,
    traffic.CAT_INLINE_CHUNK, traffic.CAT_CQE, traffic.CAT_MSIX,
    traffic.CAT_PRP_LIST, traffic.CAT_SHADOW_SYNC,
)
SPANS = ("drv.sq_submit", "drv.completion", "ctrl.sq_fetch",
         "ctrl.data_transfer", "ctrl.completion", "ctrl.shadow_sync")


class Outcome:
    """What the measured windows of one rig produced (latencies in ns)."""

    def __init__(self) -> None:
        self.ops = 0
        self.failed = 0
        self.latencies: List[float] = []
        self.put_latencies: List[float] = []
        self.get_latencies: List[float] = []
        self.sim_ns = 0.0
        self.pcie_bytes = 0
        #: Counter deltas over the windows (see :func:`_counters`).
        self.deltas: Dict[str, float] = {}
        self.inflight_high_water = 0
        #: Ops checked after the windows, and how many of those failed.
        self.verified = 0
        self.mismatched = 0

    def add(self, other: "Outcome") -> None:
        """Pool another window into this one."""
        self.ops += other.ops
        self.failed += other.failed
        self.latencies += other.latencies
        self.put_latencies += other.put_latencies
        self.get_latencies += other.get_latencies
        self.sim_ns += other.sim_ns
        self.pcie_bytes += other.pcie_bytes
        for k, v in other.deltas.items():
            self.deltas[k] = self.deltas.get(k, 0) + v
        self.inflight_high_water = max(self.inflight_high_water,
                                       other.inflight_high_water)

    def fingerprint(self) -> Tuple:
        """Simulated results that must repeat exactly for one seed."""
        return (self.ops, self.failed, self.sim_ns, self.pcie_bytes,
                sum(self.latencies), tuple(sorted(self.deltas.items())),
                self.inflight_high_water)

    def layer_metrics(self) -> Dict[str, float]:
        """Deterministic per-layer metrics from the pooled counters."""
        d = self.deltas
        ops = self.ops
        kops = ops / 1000.0
        m: Dict[str, float] = {}
        for name in SPANS:
            m[f"span.{name.replace('.', '_')}_ns_per_op"] = (
                d.get(f"span.{name}", 0.0) / ops)
        for c in TLP_CATEGORIES:
            m[f"pcie.tlps_per_op.{c}"] = d[f"tlps.{c}"] / ops
        for name in ENGINE_COUNTERS:
            m[f"engine.{name}_per_kop"] = d.get(f"engine.{name}", 0) / kops
        m["engine.inflight_high_water"] = self.inflight_high_water
        m["faults.injected_per_kop"] = d["faults.injected"] / kops
        lookups = d.get("kv.lookups", 0)
        batches = d.get("kv.batches", 0)
        m["kvssd.cache_hit_rate"] = (d["kv.hits"] / lookups if lookups
                                     else 0.0)
        m["kvssd.pairs_per_commit"] = (d["kv.batched_pairs"] / batches
                                       if batches else 0.0)
        m["kvssd.deadline_flush_share"] = (d["kv.flush_deadline"] / batches
                                           if batches else 0.0)
        m["kvssd.deferred_per_kop"] = d.get("kv.deferred", 0) / kops
        m["kvssd.lsm_compactions_per_kop"] = d.get("kv.compactions", 0) / kops
        m["kvssd.vlog_flushes_per_kop"] = d.get("kv.vlog_flushes", 0) / kops
        m["ssd.nand_programs_per_op"] = d["nand.programs"] / ops
        m["ssd.nand_reads_per_op"] = d["nand.reads"] / ops
        host = d["ftl.host_writes"]
        m["ssd.write_amplification"] = ((host + d["ftl.gc_migrations"]) / host
                                        if host else 0.0)
        return m


ENGINE_COUNTERS = ("retries", "timeouts", "re_rings", "backpressure_waits")


def _counters(tb, engine=None, service=None) -> Dict[str, float]:
    """Raw cumulative counters read from the rig's public objects."""
    ssd = tb.ssd
    out: Dict[str, float] = {
        f"tlps.{c}": tb.traffic.category(c).tlp_count for c in TLP_CATEGORIES}
    out["nand.programs"] = ssd.nand.programs
    out["nand.reads"] = ssd.nand.reads
    out["ftl.host_writes"] = ssd.ftl.host_writes
    out["ftl.gc_migrations"] = ssd.ftl.gc_migrations
    out["faults.injected"] = sum(ssd.faults.injected.values())
    if engine is not None:
        for name in ENGINE_COUNTERS:
            out[f"engine.{name}"] = getattr(engine.stats, name)
    if service is not None:
        st = service.stats
        cache = service.cache_stats
        out["kv.hits"] = cache.hits
        out["kv.lookups"] = cache.lookups
        out["kv.batches"] = st.batches
        out["kv.batched_pairs"] = st.batched_pairs
        out["kv.flush_deadline"] = st.flush_deadline
        out["kv.deferred"] = st.deferred_ops
        out["kv.compactions"] = tb.personality.index.compactions
        out["kv.vlog_flushes"] = tb.personality.vlog.flushes
    return out


class Rig:
    """One freshly built rig: :meth:`run` its windows, then :meth:`verify`."""

    #: Measured windows per rig.
    windows = 1

    def __init__(self, tb, engine=None, service=None) -> None:
        self.tb = tb
        self.engine = engine
        self.service = service
        self._meter = Meter()

    def run(self, meter: Meter, profiler=None) -> Outcome:
        """Run every window; returns the pooled outcome.

        *meter* times exactly the operations, slice by slice: a slice
        ends every ``SLICE_OPS`` operations (see :meth:`_slice`) and at
        the end of a window.  *profiler* (a ``cProfile.Profile``), when
        given, is enabled for exactly the operations: counter snapshots
        and result assembly stay outside.
        """
        pooled = Outcome()
        clock = self.tb.clock
        self._meter = meter
        for index in range(self.windows):
            clock.reset_spans()
            before = _counters(self.tb, self.engine, self.service)
            sim0, bytes0 = clock.now, self.tb.traffic.total_bytes
            out = Outcome()
            meter.start()
            if profiler is not None:
                profiler.enable()
            self._run(out, index)
            if profiler is not None:
                profiler.disable()
            meter.stop()
            self._account(out)
            out.sim_ns = clock.now - sim0
            out.pcie_bytes = self.tb.traffic.total_bytes - bytes0
            after = _counters(self.tb, self.engine, self.service)
            out.deltas = {k: after[k] - before[k] for k in after}
            for name, total in clock.span_totals().items():
                out.deltas[f"span.{name}"] = total
            if self.engine is not None:
                out.inflight_high_water = self.engine.table.high_water
            pooled.add(out)
        clock.reset_spans()
        self._meter = Meter()
        return pooled

    def _slice(self) -> None:
        """End a timed slice; called every ``SLICE_OPS`` operations."""
        self._meter.tick()

    def _run(self, out: Outcome, index: int) -> None:
        raise NotImplementedError

    def _account(self, out: Outcome) -> None:
        """Fill *out* from the window just run, outside the timed region."""

    def verify(self, out: Outcome) -> None:
        """Check every acknowledged write; counts go into *out*."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# block workloads
# ----------------------------------------------------------------------
def _check_block(personality, writes: List[Tuple[int, bytes, bool]],
                 out: Outcome) -> None:
    """Read back every acknowledged write through the personality."""
    latest: Dict[int, bytes] = {}
    for offset, payload, ok in writes:
        if ok:
            latest[offset] = payload
    for offset, payload in latest.items():
        out.verified += 1
        if personality.read_back(offset, len(payload)) != payload:
            out.mismatched += 1


class EngineRig(Rig):
    """The engine cell, optionally under a fault plan."""

    def __init__(self, seed: int, fault_plan: Optional[FaultPlan]) -> None:
        tb = make_engine_testbed(queues=ENGINE_QUEUES, fault_plan=fault_plan)
        engine = tb.make_engine(queues=ENGINE_QUEUES, qd=ENGINE_QD)
        super().__init__(tb, engine)
        window = max(1, ENGINE_QUEUES * ENGINE_QD // ENGINE_STREAMS)
        streams = [StreamSpec(stream_id=i, ops=BLOCK_OPS // ENGINE_STREAMS,
                              size="mixgraph", concurrency=window,
                              max_size=MAX_SIZE)
                   for i in range(ENGINE_STREAMS)]
        self.gen = LoadGenerator(engine, streams, seed=seed,
                                 method="byteexpress")
        self.submitted: List[Tuple[int, bytes, object]] = []
        inner = engine.submit
        log = self.submitted.append
        end_slice = self._slice
        count = 0

        def submit(payload: bytes, **kw):
            nonlocal count
            future = inner(payload, **kw)
            offset = kw.get("cdw10", 0) | (kw.get("cdw11", 0) << 32)
            log((offset, payload, future))
            count += 1
            if count % SLICE_OPS == 0:
                end_slice()
            return future

        # Record every write the load generator issues, wherever it
        # places it, so verification does not depend on its layout.
        engine.submit = submit

    def _run(self, out: Outcome, index: int) -> None:
        self.gen.run()

    def _account(self, out: Outcome) -> None:
        for _offset, _payload, f in self.submitted:
            out.ops += 1
            if f.ok:
                out.latencies.append(f.latency_ns)
            else:
                out.failed += 1
        out.put_latencies = out.latencies

    def verify(self, out: Outcome) -> None:
        _check_block(self.tb.personality,
                     [(o, p, f.ok) for o, p, f in self.submitted], out)


class PassthruRig(Rig):
    """Synchronous QD-1 writes, round-robin over three methods."""

    def __init__(self, seed: int) -> None:
        tb = make_block_testbed(include_mmio=False)
        super().__init__(tb)
        self.methods = [tb.method(m) for m in PASSTHRU_METHODS]
        sizes = np.minimum(sample_value_sizes(BLOCK_OPS, seed=seed), MAX_SIZE)
        rng = make_rng(seed, "perfbench.passthru.payloads")
        self.writes: List[Tuple[int, bytes]] = []
        offset = 0
        for n in sizes:
            # Packed, but no write crosses a page boundary.
            if offset % PAGE_SIZE + n > PAGE_SIZE:
                offset += PAGE_SIZE - offset % PAGE_SIZE
            self.writes.append((offset, random_bytes(rng, int(n))))
            offset += int(n)
        self.acked: List[Tuple[int, bytes, bool]] = []

    def _run(self, out: Outcome, index: int) -> None:
        methods = self.methods
        nmeth = len(methods)
        acked = self.acked
        end_slice = self._slice
        for i, (offset, payload) in enumerate(self.writes):
            if i and i % SLICE_OPS == 0:
                end_slice()
            st = methods[i % nmeth].write(payload, cdw10=offset & 0xFFFFFFFF,
                                          cdw11=offset >> 32)
            acked.append((offset, payload, st.ok))
            if st.ok:
                out.latencies.append(st.latency_ns)
            else:
                out.failed += 1
        out.ops = BLOCK_OPS
        out.put_latencies = out.latencies

    def verify(self, out: Outcome) -> None:
        _check_block(self.tb.personality, self.acked, out)


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
class KvRig(Rig):
    """Closed-loop sessions at fan-in 1 over the serving front-end."""

    windows = KV_WINDOWS

    def __init__(self, seed: int) -> None:
        tb = make_kv_testbed()
        service = tb.make_service(qd=KV_QD, batch_window_ns=KV_BATCH_WINDOW_NS,
                                  batch_max_pairs=KV_BATCH_MAX_PAIRS,
                                  cache_entries=KV_CACHE_ENTRIES)
        super().__init__(tb, service.engine, service)
        self.sessions = [service.open_session() for _ in range(KV_SESSIONS)]
        #: Per session: key → last acknowledged value.
        self.acked: List[Dict[bytes, bytes]] = [{} for _ in self.sessions]
        self._preload(seed)
        preload_failed = (KV_SESSIONS * KV_KEYS_PER_SESSION
                          - sum(len(a) for a in self.acked))
        # Op streams: one to warm the read cache, so the windows measure
        # the steady state rather than the cache filling up, then one
        # per window.
        self.streams = [
            [session_ops(s.session_id, ops, KV_READ_RATIO,
                         KV_KEYS_PER_SESSION, seed * 16 + i)
             for s in self.sessions]
            for i, ops in enumerate([KV_WARMUP_OPS_PER_SESSION]
                                    + [KV_OPS_PER_WINDOW] * self.windows)]
        warmup = Outcome()
        self._run(warmup, -1)
        self.setup_failed = preload_failed + warmup.failed

    def _preload(self, seed: int) -> None:
        """Write every key once, so GETs address a populated store."""
        pending = []
        for s in self.sessions:
            sid = s.session_id
            rng = make_rng(seed, f"perfbench.kv.preload.{sid}")
            sizes = sample_value_sizes(KV_KEYS_PER_SESSION,
                                       seed=seed + 104729 * (sid + 1))
            for kid in range(KV_KEYS_PER_SESSION):
                key = session_key(sid, kid)
                value = random_bytes(rng, int(min(sizes[kid], MAX_SIZE)))
                pending.append((sid, key, value, s.put(key, value)))
        self.service.drain()
        for sid, key, value, future in pending:
            if future.ok:
                self.acked[sid][key] = value

    def _run(self, out: Outcome, index: int) -> None:
        service = self.service
        clock = service.clock
        sessions = self.sessions
        streams = self.streams[index + 1]
        acked = self.acked
        issued = [0] * len(sessions)
        inflight: List[Optional[tuple]] = [None] * len(sessions)
        total = sum(len(ops) for ops in streams)
        done = 0
        next_slice = SLICE_OPS
        stall = 0
        while done < total:
            for sid, session in enumerate(sessions):
                if inflight[sid] is None and issued[sid] < len(streams[sid]):
                    op = streams[sid][issued[sid]]
                    issued[sid] += 1
                    future = (session.put(op.key, op.value) if op.op == "put"
                              else session.get(op.key))
                    inflight[sid] = (op, future)
            before = clock.now
            service.poll()
            progressed = 0
            for sid in range(len(sessions)):
                pair = inflight[sid]
                if pair is None or not pair[1].done:
                    continue
                inflight[sid] = None
                progressed += 1
                op, future = pair
                self._settle(op, future, acked[sid], out)
            done += progressed
            if done >= next_slice:
                self._slice()
                next_slice = done + SLICE_OPS
            if progressed == 0 and clock.now <= before:
                stall += 1
                if stall > 100:
                    raise RuntimeError("kv_serving loop made no progress")
            else:
                stall = 0
        out.ops = total

    @staticmethod
    def _settle(op, future, acked: Dict[bytes, bytes], out: Outcome) -> None:
        """Account one finished op; every GET checks read-your-writes."""
        if op.op == "put":
            if future.ok:
                acked[op.key] = op.value
                out.put_latencies.append(future.latency_ns)
                out.latencies.append(future.latency_ns)
            else:
                out.failed += 1
            return
        expected = acked.get(op.key)
        good = (future.not_found if expected is None
                else future.ok and future.value == expected)
        if good:
            out.get_latencies.append(future.latency_ns)
            out.latencies.append(future.latency_ns)
        else:
            out.failed += 1

    def verify(self, out: Outcome) -> None:
        """GET every acknowledged key and compare values.

        Failures before the windows (a preload PUT that was not
        acknowledged, a warm-up op that failed) count here too.
        """
        out.mismatched += self.setup_failed
        pending = []
        for session, acked in zip(self.sessions, self.acked):
            for key, value in acked.items():
                pending.append((value, session.get(key)))
        self.service.drain()
        for value, future in pending:
            out.verified += 1
            if not future.ok or future.value != value:
                out.mismatched += 1


def _faulted(seed: int) -> Rig:
    plan = FaultPlan.uniform(FAULT_RATE, seed=seed ^ 0xFA017, kinds=FAULT_KINDS)
    return EngineRig(seed, plan)


#: Workload name → rig factory taking the workload seed.
WORKLOADS: Dict[str, Callable[[int], Rig]] = {
    "engine_inline": lambda seed: EngineRig(seed, None),
    "engine_faulted": _faulted,
    "passthru_qd1": PassthruRig,
    "kv_serving": KvRig,
}
