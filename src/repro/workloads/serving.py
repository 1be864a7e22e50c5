"""Closed-loop serving workload: N sessions over the KV front-end.

The ROADMAP's "millions of users" shape, scaled to the simulator: every
session runs a deterministic MixGraph-style GET/PUT mix (GPD value
sizes, session-private key range) in a closed loop with a fixed fan-in,
all multiplexed onto one :class:`~repro.kvssd.KvService`.  The harness
is the serving analogue of :func:`repro.virt.workload.run_tenant_loads`
— one poll loop drives every session at once, so group commit actually
sees concurrent writers and the cache actually sees concurrent readers.

At ``fan_in=1`` the harness additionally *verifies* read-your-writes:
each session tracks its last acknowledged value per key, and every GET
completion is compared against it — a serving-level consistency check
that runs on every benchmark, not only under ``REPRO_VERIFY``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.metrics.stats import LatencyRecorder, LatencySummary
from repro.sim.rng import make_rng, random_bytes
from repro.workloads.mixgraph import KvOp, sample_value_sizes

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids the
    # kvssd.service → engine → loadgen → workloads import cycle)
    from repro.kvssd.service import KvFuture, KvService, KvSession


class ServingConsistencyError(Exception):
    """A session observed a value older than its last acknowledged write."""


def session_key(session_id: int, key_id: int) -> bytes:
    """Session-private 13-byte key: sessions never share keys, so
    read-your-writes is checkable per session without cross-session
    write ordering assumptions."""
    return (b"s" + session_id.to_bytes(4, "big")
            + int(key_id).to_bytes(8, "big"))


#: Power-law exponent for key popularity: ``key = floor(K * u^skew)``.
#: MixGraph's key accesses are heavily skewed toward a hot set (Cao et
#: al., FAST '20, §5: "all_dist" follows a power law).  A key falls in
#: the hottest fraction f of the range when ``u < f ** (1 / skew)``, so
#: skew 2 puts 50 % of accesses on the hottest quarter and ~70.7 % on
#: the hottest half; 1 is uniform.
KEY_SKEW = 2.0


def session_ops(session_id: int, ops: int, read_ratio: float,
                keys_per_session: int, seed: int,
                key_skew: float = KEY_SKEW) -> List[KvOp]:
    """The deterministic op stream of one session.

    GETs with probability *read_ratio*, PUTs otherwise; keys follow a
    power-law-skewed draw over the session's private range (hot-key
    locality, MixGraph-style); PUT value sizes follow the MixGraph GPD
    (per-session sub-seed) with deterministic contents.
    """
    if ops <= 0:
        raise ValueError("ops must be positive")
    if not 0.0 <= read_ratio <= 1.0:
        raise ValueError(f"read_ratio must be in [0, 1], got {read_ratio}")
    if keys_per_session <= 0:
        raise ValueError("keys_per_session must be positive")
    if key_skew < 1.0:
        raise ValueError(f"key_skew must be >= 1, got {key_skew}")
    op_rng = make_rng(seed, f"serving.ops.{session_id}")
    data_rng = make_rng(seed, f"serving.values.{session_id}")
    sizes = sample_value_sizes(ops, seed=seed + 7919 * session_id)
    key_ids = (op_rng.random(ops) ** key_skew
               * keys_per_session).astype(int)
    is_get = op_rng.random(ops) < read_ratio
    out: List[KvOp] = []
    for i in range(ops):
        key = session_key(session_id, int(key_ids[i]))
        if is_get[i]:
            out.append(KvOp("get", key))
        else:
            out.append(KvOp("put", key, random_bytes(data_rng,
                                                     int(sizes[i]))))
    return out


@dataclass(frozen=True)
class SessionReport:
    """One session's outcome."""

    session_id: int
    ops: int
    ok: int
    not_found: int
    errors: int
    latency: LatencySummary


@dataclass(frozen=True)
class ServingReport:
    """Aggregate outcome of one closed-loop serving run."""

    sessions: int
    ops: int
    ok: int
    not_found: int
    errors: int
    elapsed_ns: float
    #: Latency over every completed op across all sessions.
    latency: LatencySummary
    #: The worst single client's tail (the per-client p99/p99.9 the
    #: acceptance criteria ask for: aggregate tails hide a starved
    #: session, a per-client max does not).
    worst_p99_us: float
    worst_p999_us: float
    per_session: Tuple[SessionReport, ...]
    #: GET completions verified against the session's acknowledged
    #: writes (0 when fan_in > 1 disables verification).
    rw_checks: int

    @property
    def served_kiops(self) -> float:
        """Completed (ok + not-found) ops per millisecond of wall run."""
        if self.elapsed_ns <= 0:
            return 0.0
        return (self.ok + self.not_found) / self.elapsed_ns * 1e6


@dataclass
class _SessionState:
    session: KvSession
    ops: List[KvOp]
    issued: int = 0
    ok: int = 0
    not_found: int = 0
    errors: int = 0
    outstanding: List[Tuple[KvOp, KvFuture]] = field(default_factory=list)
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    #: key → last acknowledged value (None records an acked delete).
    acked: Dict[bytes, Optional[bytes]] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.issued >= len(self.ops) and not self.outstanding


def _issue(state: _SessionState, op: KvOp) -> KvFuture:
    if op.op == "put":
        return state.session.put(op.key, op.value)
    if op.op == "get":
        return state.session.get(op.key)
    if op.op == "delete":
        return state.session.delete(op.key)
    raise ValueError(f"unknown op {op.op!r}")


def _collect(state: _SessionState, verify: bool) -> Tuple[int, int]:
    """Harvest done futures; returns (progressed, rw_checks)."""
    progressed = 0
    rw_checks = 0
    still: List[Tuple[KvOp, KvFuture]] = []
    for op, future in state.outstanding:
        if not future.done:
            still.append((op, future))
            continue
        progressed += 1
        state.latency.samples.append(future.latency_ns)
        if future.ok:
            state.ok += 1
        elif future.not_found:
            state.not_found += 1
        else:
            state.errors += 1
        if op.op == "put" and future.ok:
            state.acked[op.key] = op.value
        elif op.op == "delete" and (future.ok or future.not_found):
            state.acked[op.key] = None
        elif op.op == "get" and verify:
            # verify implies fan_in == 1: this GET was the session's
            # only op in flight, so `acked` is exactly the state the
            # session has been acknowledged.
            rw_checks += 1
            expected = state.acked.get(op.key)
            if expected is None:
                if future.ok:
                    raise ServingConsistencyError(
                        f"session {state.session.session_id}: GET "
                        f"{op.key.hex()} returned {len(future.value or b'')}"
                        f" B but the session never acknowledged a write")
            elif not future.ok or future.value != expected:
                raise ServingConsistencyError(
                    f"session {state.session.session_id}: GET "
                    f"{op.key.hex()} observed "
                    f"{future.state if not future.ok else 'a stale value'}"
                    f" after an acknowledged {len(expected)} B write")
    state.outstanding = still
    return progressed, rw_checks


def run_serving(service: KvService, sessions: int, ops_per_session: int,
                read_ratio: float = 0.9, keys_per_session: int = 32,
                fan_in: int = 1, seed: int = 0x5EED) -> ServingReport:
    """Drive *sessions* closed-loop clients to completion.

    Every session issues its deterministic op stream with at most
    *fan_in* operations outstanding; one shared poll loop advances the
    service (and with it group commit and the engine pipeline).  At
    ``fan_in == 1`` each GET is verified against the session's last
    acknowledged write.

    A preload first writes every session's full key range (untimed —
    the report's window opens after the preload drains), the standard
    serving-benchmark shape: GETs address a populated store rather
    than an empty one.
    """
    if sessions <= 0:
        raise ValueError("sessions must be positive")
    if fan_in <= 0:
        raise ValueError("fan_in must be positive")
    verify = fan_in == 1
    states = [
        _SessionState(
            session=service.open_session(),
            ops=session_ops(sid, ops_per_session, read_ratio,
                            keys_per_session, seed))
        for sid in range(sessions)
    ]
    clock = service.clock
    loaded: List[Tuple[_SessionState, bytes, bytes, "KvFuture"]] = []
    for st in states:
        sid = st.session.session_id
        data_rng = make_rng(seed, f"serving.preload.{sid}")
        sizes = sample_value_sizes(
            keys_per_session, seed=seed + 104729 * (sid + 1))
        for kid in range(keys_per_session):
            key = session_key(sid, kid)
            value = random_bytes(data_rng, int(sizes[kid]))
            loaded.append((st, key, value, st.session.put(key, value)))
    service.drain()
    for st, key, value, future in loaded:
        if future.ok:
            st.acked[key] = value
    start_ns = clock.now
    rw_checks = 0
    stall = 0
    while not all(st.finished for st in states):
        progressed = 0
        round_start_ns = clock.now
        for st in states:
            while (st.issued < len(st.ops)
                   and len(st.outstanding) < fan_in):
                op = st.ops[st.issued]
                st.outstanding.append((op, _issue(st, op)))
                st.issued += 1
                progressed += 1
        service.poll()
        for st in states:
            got, checks = _collect(st, verify)
            progressed += got
            rw_checks += checks
        if progressed == 0 and clock.now <= round_start_ns:
            stall += 1
            if stall > 100:
                raise RuntimeError("serving loop wedged (no progress and "
                                   "the clock is not advancing)")
        else:
            stall = 0
    elapsed_ns = clock.now - start_ns

    per_session: List[SessionReport] = []
    aggregate = LatencyRecorder()
    for st in states:
        aggregate.merge(st.latency)
        per_session.append(SessionReport(
            session_id=st.session.session_id, ops=len(st.ops), ok=st.ok,
            not_found=st.not_found, errors=st.errors,
            latency=st.latency.summary()))
        st.session.close()
    return ServingReport(
        sessions=sessions, ops=sessions * ops_per_session,
        ok=sum(st.ok for st in states),
        not_found=sum(st.not_found for st in states),
        errors=sum(st.errors for st in states),
        elapsed_ns=elapsed_ns, latency=aggregate.summary(),
        worst_p99_us=max((s.latency.p99 for s in per_session
                          if s.latency.count), default=0.0) / 1000.0,
        worst_p999_us=max((s.latency.p999 for s in per_session
                           if s.latency.count), default=0.0) / 1000.0,
        per_session=tuple(per_session), rw_checks=rw_checks)
