"""Concurrent load generator: many client streams over I/O engines.

Each :class:`StreamSpec` describes an independent client — its own
closed-loop concurrency (outstanding-ops window), its own seeded
arrival process (exponential think times between a completion and the
next issue), and its own payload-size distribution (fixed, uniform, or
the MixGraph generalised-Pareto value sizes from
:mod:`repro.workloads.mixgraph`).  The generator multiplexes all
streams onto one engine's queue set, or one engine per stream (a
tenant's each, all contending at once), and reports per-stream and
aggregate latency (p50/p99/p99.9), throughput and PCIe traffic.

Everything is seeded: two runs with the same specs and seed produce
byte-identical reports, which the determinism tests and the scaling
ablation rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.datapath import names as dp_names
from repro.engine.engine import IoEngine
from repro.engine.table import OK, PENDING, TIMED_OUT, CommandFuture
from repro.metrics.stats import LatencyRecorder, LatencySummary
from repro.metrics.reporting import format_table
from repro.nvme.constants import PAGE_SIZE, IoOpcode
from repro.sim.rng import make_rng
from repro.workloads.mixgraph import GPD_SCALE, GPD_SHAPE


class LoadGenError(ValueError):
    """Bad stream specification or a wedged run."""


@dataclass(frozen=True)
class StreamSpec:
    """One client stream.

    ``size`` accepts ``"fixed:N"``, ``"uniform:LO:HI"`` or
    ``"mixgraph"`` (GPD value sizes, clamped to *max_size*).
    ``concurrency`` is the stream's closed-loop window: how many of its
    ops may be outstanding at once.  ``think_ns`` is the mean of an
    exponential pause between one completion and the next issue
    (0 = issue back-to-back).
    """

    stream_id: int
    ops: int
    size: str = "fixed:64"
    concurrency: int = 1
    think_ns: float = 0.0
    method: Optional[str] = None
    max_size: int = 4096

    def __post_init__(self) -> None:
        if self.ops < 1:
            raise LoadGenError("stream needs at least one op")
        if self.concurrency < 1:
            raise LoadGenError("stream concurrency must be >= 1")
        if self.think_ns < 0:
            raise LoadGenError("think time must be non-negative")


#: Payload ramp: byte ``j`` is ``j & 0xFF``, so the slice starting at
#: ``base & 0xFF`` is the fill ``(base + i) & 0xFF``.  Long enough for
#: the default ``max_size`` from any start; larger requests regrow it.
_PAYLOAD_RAMP = bytes(range(256)) * 17


def _payload_bytes(base: int, size: int) -> bytes:
    """Deterministic payload fill, ``(base + i) & 0xFF`` per byte.

    One slice of a fixed ramp, byte-identical to the scalar generator
    expression — golden fingerprints depend on the exact payload bytes.
    """
    global _PAYLOAD_RAMP
    start = base & 0xFF
    end = start + size
    if end > len(_PAYLOAD_RAMP):
        _PAYLOAD_RAMP = bytes(range(256)) * (end // 256 + 1)
    return _PAYLOAD_RAMP[start:end]


def _draw_sizes(spec: StreamSpec, seed: int) -> np.ndarray:
    """Pre-draw every payload size for one stream, seeded per stream."""
    rng = make_rng(seed, f"loadgen.sizes.{spec.stream_id}")
    kind, _, rest = spec.size.partition(":")
    if kind == "fixed":
        n = int(rest) if rest else 64
        if not 0 < n <= spec.max_size:
            raise LoadGenError(f"fixed size {n} out of range")
        return np.full(spec.ops, n, dtype=np.int64)
    if kind == "uniform":
        lo_s, _, hi_s = rest.partition(":")
        lo, hi = int(lo_s), int(hi_s)
        if not 0 < lo <= hi <= spec.max_size:
            raise LoadGenError(f"bad uniform range {lo}..{hi}")
        return rng.integers(lo, hi + 1, size=spec.ops, dtype=np.int64)
    if kind == "mixgraph":
        u = rng.random(spec.ops)
        sizes = GPD_SCALE / GPD_SHAPE * ((1.0 - u) ** -GPD_SHAPE - 1.0)
        return np.clip(sizes.astype(np.int64) + 1, 1, spec.max_size)
    raise LoadGenError(f"unknown size distribution {spec.size!r}")


@dataclass
class _StreamState:
    spec: StreamSpec
    engine: IoEngine
    #: Payload sizes per op, as Python ints.
    sizes: List[int]
    think: Optional[np.ndarray]
    issued: int = 0
    start_ns: float = 0.0
    end_ns: float = 0.0
    next_issue_ns: float = 0.0
    outstanding: List[CommandFuture] = field(default_factory=list)
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    ok: int = 0
    errors: int = 0
    timeouts: int = 0

    @property
    def finished(self) -> bool:
        return self.issued >= self.spec.ops and not self.outstanding


@dataclass(frozen=True)
class StreamReport:
    stream_id: int
    method: str
    ops: int
    ok: int
    errors: int
    timeouts: int
    latency: LatencySummary
    elapsed_ns: float

    @property
    def kops(self) -> float:
        """Completed ops per millisecond of the stream's active window."""
        if self.elapsed_ns <= 0:
            return 0.0
        return self.ok / self.elapsed_ns * 1e6


@dataclass(frozen=True)
class LoadReport:
    """Aggregate outcome of one load-generator run."""

    streams: Tuple[StreamReport, ...]
    elapsed_ns: float
    total_ops: int
    total_ok: int
    total_errors: int
    total_timeouts: int
    latency: LatencySummary
    pcie_bytes: int
    #: Engine counters, summed over the run's engines.
    engine_stats: dict
    #: Most commands any one engine had in flight at once.
    inflight_high_water: int

    @property
    def kiops(self) -> float:
        """Aggregate completed ops per millisecond of simulated time."""
        if self.elapsed_ns <= 0:
            return 0.0
        return self.total_ok / self.elapsed_ns * 1e6

    @property
    def bytes_per_op(self) -> float:
        return self.pcie_bytes / self.total_ok if self.total_ok else 0.0

    def table(self) -> str:
        rows = []
        for s in self.streams:
            rows.append([
                s.stream_id, s.method, s.ops, s.ok,
                s.errors + s.timeouts,
                f"{s.latency.p50 / 1000:.2f}",
                f"{s.latency.p99 / 1000:.2f}",
                f"{s.latency.p999 / 1000:.2f}",
                f"{s.kops:.1f}",
            ])
        body = format_table(
            ["stream", "method", "ops", "ok", "fail",
             "p50(us)", "p99(us)", "p99.9(us)", "kops"],
            rows, title="per-stream results")
        agg = (f"aggregate: {self.total_ok}/{self.total_ops} ok, "
               f"{self.kiops:.1f} kops, "
               f"p50={self.latency.p50 / 1000:.2f}us "
               f"p99={self.latency.p99 / 1000:.2f}us "
               f"p99.9={self.latency.p999 / 1000:.2f}us, "
               f"{self.bytes_per_op:.1f} PCIe B/op, "
               f"max inflight {self.inflight_high_water}")
        return body + "\n" + agg


class LoadGenerator:
    """Drives many client streams through one engine, or one per stream.

    *engine* is either one engine every stream shares, or a
    ``{stream_id: engine}`` mapping that gives each stream its own (a
    tenant's engine, say); engines may repeat, and all must share one
    clock.  Each round issues for every stream, then polls each
    distinct engine once, in stream order, and harvests its streams.
    Every engine is polled every round, even once its streams are done:
    a poll drives the shared controller for all of them.
    """

    def __init__(self, engine: Union[IoEngine, Mapping[int, IoEngine]],
                 streams: List[StreamSpec],
                 seed: int = 0x5EED, method: str = dp_names.BYTEEXPRESS,
                 opcode: int = IoOpcode.WRITE) -> None:
        if not streams:
            raise LoadGenError("load generator needs at least one stream")
        ids = [s.stream_id for s in streams]
        if len(set(ids)) != len(ids):
            raise LoadGenError(f"duplicate stream ids: {ids}")
        engines = (engine if isinstance(engine, Mapping)
                   else dict.fromkeys(ids, engine))
        if sorted(engines) != sorted(ids):
            raise LoadGenError(f"engines for streams {sorted(engines)} do "
                               f"not match the stream ids {sorted(ids)}")
        self.seed = seed
        self.method = method
        self.opcode = opcode
        self._states: List[_StreamState] = []
        #: Poll order: each distinct engine with the streams it serves.
        groups: Dict[int, Tuple[IoEngine, List[_StreamState]]] = {}
        for spec in streams:
            think = None
            if spec.think_ns > 0:
                rng = make_rng(seed, f"loadgen.think.{spec.stream_id}")
                think = rng.exponential(spec.think_ns, size=spec.ops)
            eng = engines[spec.stream_id]
            state = _StreamState(spec=spec, engine=eng,
                                 sizes=_draw_sizes(spec, seed).tolist(),
                                 think=think)
            self._states.append(state)
            groups.setdefault(id(eng), (eng, []))[1].append(state)
        self._groups = list(groups.values())
        self.clock = self._groups[0][0].clock
        if any(eng.clock is not self.clock for eng, _ in self._groups):
            raise LoadGenError("every engine must share one clock")
        #: Distinct write offset per op, across all streams — concurrent
        #: writes must not overlap, or verification of the backing store
        #: is meaningless.  Each op keeps its own page for the whole run,
        #: so every acknowledged write stays verifiable afterwards;
        #: recycling offsets would leave only each offset's last writer
        #: to check.  The NAND-off store holds just the bytes written, so
        #: a page per op costs the payload, not 4 KiB.
        self._next_offset = 0

    # ------------------------------------------------------------------
    def _fill(self, state: _StreamState) -> int:
        """Issue *state*'s next ops while its window has room, it has
        ops left and its next arrival is due; returns the ops issued."""
        spec = state.spec
        clock = self.clock
        sizes = state.sizes
        think = state.think
        outstanding = state.outstanding
        method = spec.method or self.method
        opcode = self.opcode
        sid = spec.stream_id
        room = spec.concurrency - len(outstanding)
        first = issued = state.issued
        end = spec.ops
        while room > 0 and issued < end and clock.now >= state.next_issue_ns:
            offset = self._next_offset
            self._next_offset = offset + PAGE_SIZE
            # ``engine.submit`` is looked up per issue: callers may
            # replace it on the engine after building the generator.
            future = state.engine.submit(
                _payload_bytes(issued * 131 + sid * 31, sizes[issued]),
                method=method, opcode=opcode, cdw10=offset & 0xFFFFFFFF,
                cdw11=offset >> 32, stream=sid)
            if issued == 0:
                state.start_ns = future.submit_ns
            if think is not None:
                state.next_issue_ns = clock.now + float(think[issued])
            outstanding.append(future)
            issued += 1
            state.issued = issued
            room -= 1
        return issued - first

    def _harvest(self, state: _StreamState) -> int:
        # One pass over the window per poll round; future states are
        # read directly (no property frames on this scan).
        outstanding = state.outstanding
        still = [f for f in outstanding if f.state == PENDING]
        harvested = len(outstanding) - len(still)
        if not harvested:
            return 0
        record = state.latency.samples.append
        for f in outstanding:
            fstate = f.state
            if fstate == OK:
                state.ok += 1
                record(f.latency_ns)
            elif fstate == TIMED_OUT:
                state.timeouts += 1
            elif fstate != PENDING:
                state.errors += 1
        state.outstanding = still
        if state.finished:
            state.end_ns = self.clock.now
        return harvested

    def run(self) -> LoadReport:
        """Run every stream to completion; returns the report."""
        clock = self.clock
        groups = self._groups
        counter = groups[0][0].driver.link.counter
        start_ns, start_bytes = clock.now, counter.total_bytes

        stall = 0
        while not all(s.finished for s in self._states):
            round_start_ns = clock.now
            progressed = 0
            for state in self._states:
                progressed += self._fill(state)
            for engine, states in groups:
                engine.poll()
                for state in states:
                    progressed += self._harvest(state)
            if progressed:
                stall = 0
                continue
            if any(e.table or e.parked for e, _ in groups):
                # A QoS-throttled round moves the clock to the next
                # token refill yet resolves nothing; only no progress on
                # a frozen clock is a wedge.
                stall = stall + 1 if clock.now <= round_start_ns else 0
                if stall > 100:
                    raise LoadGenError(
                        "load generator wedged (no progress and the "
                        "clock is not advancing)")
                continue
            # Every stream is merely thinking: jump to the earliest
            # next arrival instead of spinning.
            waiting = [s.next_issue_ns for s in self._states
                       if not s.finished]
            if not waiting:
                break
            clock.advance_to(min(waiting))

        elapsed_ns = clock.now - start_ns
        reports = []
        aggregate = LatencyRecorder()
        for state in self._states:
            aggregate.merge(state.latency)
            reports.append(StreamReport(
                stream_id=state.spec.stream_id,
                method=state.spec.method or self.method,
                ops=state.spec.ops, ok=state.ok, errors=state.errors,
                timeouts=state.timeouts, latency=state.latency.summary(),
                elapsed_ns=max(state.end_ns - state.start_ns, 0.0)))
        engine_stats: Dict[str, int] = {}
        for engine, _ in groups:
            for name, value in engine.stats.as_dict().items():
                engine_stats[name] = engine_stats.get(name, 0) + value
        return LoadReport(
            streams=tuple(reports),
            elapsed_ns=elapsed_ns,
            total_ops=sum(s.spec.ops for s in self._states),
            total_ok=sum(s.ok for s in self._states),
            total_errors=sum(s.errors for s in self._states),
            total_timeouts=sum(s.timeouts for s in self._states),
            latency=aggregate.summary(),
            pcie_bytes=counter.total_bytes - start_bytes,
            engine_stats=engine_stats,
            inflight_high_water=max(e.table.high_water for e, _ in groups))
