"""Seeded fault plans and the injector runtime.

A :class:`FaultPlan` is pure configuration: per-kind probabilities,
explicit schedules (fire on the Nth opportunity), and injection limits.
A :class:`FaultInjector` executes a plan deterministically — each fault
kind draws from its own seeded RNG stream (:func:`repro.sim.rng.make_rng`
with ``stream=kind``), so adding a new fault kind or reordering unrelated
protocol actions never perturbs another kind's decisions.

The draw rule, per opportunity of one kind: once the kind's limit is
reached nothing fires and nothing is drawn; otherwise a scheduled index
fires *without* taking a draw, and any other index takes exactly one
``random()`` draw when the kind has a rate, firing when it falls below
the rate.

The injector looks ahead on each kind's stream instead of deciding one
opportunity at a time.  It draws a block of doubles at once
(``random(size=B)`` yields the same doubles as B scalar draws) and finds
the next firing; :attr:`FaultInjector.left` then holds, per kind, how
many opportunities can pass before anything happens.  The hot paths
consume whole runs of opportunities against that countdown.  A run of
TLP copies is one subtraction, split only where a fault fires or a
crash cut lands.  An inline payload is one subtraction when no event
falls inside it, and is consumed one chunk at a time otherwise.
:meth:`FaultInjector.fire` is the count-1 case.  Decisions, opportunity
counts, injected events and every RNG value are exactly those of the
one-at-a-time rule above.

Fault kinds and where the stack consults them:

==========================  ==============================================
kind                        injection point
==========================  ==============================================
``drop_doorbell``           :meth:`NvmeDriver._ring_sq_doorbell` — the
                            posted MMIO write is lost; the device's tail
                            stays stale until the driver re-rings.
``corrupt_inline_length``   controller command fetch — the ByteExpress
                            reserved field arrives garbled; the decode
                            check fails the command instead of mis-fetching.
``corrupt_chunk``           :func:`fetch_inline_payload` — one inline
                            chunk's TLP fails its ECRC; the fetch aborts.
``drop_cqe``                controller completion post — the CQE never
                            reaches host memory; the host times out.
``delay_cqe``               controller completion post — the CQE is
                            posted ``DELAY_CQE_NS`` (50 µs) late.
``corrupt_tlp``             PCIe DMA — link-layer LCRC catches the error;
                            the TLP is replayed (its duplicate wire bytes,
                            no modelled latency), data stays intact.
==========================  ==============================================
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.sim.rng import make_rng

DROP_DOORBELL = "drop_doorbell"
CORRUPT_INLINE_LENGTH = "corrupt_inline_length"
CORRUPT_CHUNK = "corrupt_chunk"
DROP_CQE = "drop_cqe"
DELAY_CQE = "delay_cqe"
CORRUPT_TLP = "corrupt_tlp"

ALL_KINDS: Tuple[str, ...] = (
    DROP_DOORBELL,
    CORRUPT_INLINE_LENGTH,
    CORRUPT_CHUNK,
    DROP_CQE,
    DELAY_CQE,
    CORRUPT_TLP,
)

#: Extra completion latency for a delayed CQE (nanoseconds).
DELAY_CQE_NS = 50_000.0

#: Host MMIO loads and stores: an opportunity stream with no fault of
#: its own.  Only a crash cut observes it — a cut mid-doorbell is a
#: classic torn publication.
MMIO_TLP = "mmio_tlp"


def fault_event(kind: str) -> str:
    """Traffic-counter event name under which an injection is recorded."""
    return f"fault.{kind}"


# -- crash cuts (repro.durability) ----------------------------------------

#: Cut the simulation at the Nth data/MMIO TLP crossing the link.
CUT_TLP = "tlp"
#: Cut at the Nth SQ doorbell publication.
CUT_DOORBELL = "doorbell"
#: Cut at the Nth I/O CQE posting.
CUT_CQE = "cqe"

CUT_KINDS: Tuple[str, ...] = (CUT_TLP, CUT_DOORBELL, CUT_CQE)

#: Opportunity streams that double as crash-cut sites.  Each opportunity
#: ticks the mapped cut kind *before* its fault decision, so a cut lands
#: before the action it interrupts takes effect.
_CUT_OF_STREAM: Dict[str, str] = {
    CORRUPT_TLP: CUT_TLP,
    MMIO_TLP: CUT_TLP,
    DROP_DOORBELL: CUT_DOORBELL,
    DROP_CQE: CUT_CQE,
}
_CUT_SOURCES: Dict[str, Tuple[str, ...]] = {
    cut: tuple(s for s, c in _CUT_OF_STREAM.items() if c == cut)
    for cut in CUT_KINDS
}

#: Every stream the injector counts down.
_STREAMS: Tuple[str, ...] = ALL_KINDS + (MMIO_TLP,)

#: Countdown of a stream with nothing ahead of it.
_NEVER = 1 << 62

#: Most draws one lookahead takes; a block is sized to about one
#: expected gap between firings (1/rate), so a firing is usually found
#: in the first block and high rates draw only a few values at a time.
_MAX_BLOCK = 4096


@dataclass(frozen=True)
class CrashPlan:
    """A seeded power-cut point: stop the world at one protocol action.

    ``cut_index`` is a 0-based opportunity index of ``cut_kind``,
    counted from the moment the plan is armed — the same deterministic
    opportunity-stream discipline the fault kinds use, so a given
    (kind, index) pair cuts at exactly the same simulated instant on
    every run.
    """

    cut_kind: str = CUT_TLP
    cut_index: int = 0

    def __post_init__(self) -> None:
        if self.cut_kind not in CUT_KINDS:
            raise ValueError(f"unknown cut kind {self.cut_kind!r}; "
                             f"pick from {CUT_KINDS}")
        if self.cut_index < 0:
            raise ValueError("cut_index must be non-negative")


class CrashCut(Exception):
    """The simulated power cut.

    Raised out of the protocol action the armed :class:`CrashPlan`
    names; the crash harness catches it at the workload boundary and
    runs the power-loss + recovery sequence.  Nothing in the stack may
    swallow it.
    """

    def __init__(self, cut_kind: str, cut_index: int) -> None:
        super().__init__(f"power cut at {cut_kind} opportunity "
                         f"#{cut_index}")
        self.cut_kind = cut_kind
        self.cut_index = cut_index


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of which protocol actions fail.

    ``rates`` gives a per-opportunity probability per kind; ``schedule``
    names explicit 0-based opportunity indices that always fire (useful
    for pinpoint regression tests); ``limits`` caps total injections per
    kind.  All three compose: a scheduled index fires regardless of the
    rate, and nothing fires past the limit.
    """

    seed: int = 0xFA017
    rates: Mapping[str, float] = field(default_factory=dict)
    schedule: Mapping[str, Sequence[int]] = field(default_factory=dict)
    limits: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for mapping in (self.rates, self.schedule, self.limits):
            for kind in mapping:
                if kind not in ALL_KINDS:
                    raise ValueError(f"unknown fault kind {kind!r}; "
                                     f"pick from {ALL_KINDS}")
        for kind, rate in self.rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate for {kind!r} must be in [0, 1]")

    @property
    def active(self) -> bool:
        return bool(self.rates or self.schedule)

    @classmethod
    def uniform(cls, rate: float, seed: int = 0xFA017,
                kinds: Sequence[str] = ALL_KINDS, **kw) -> "FaultPlan":
        """Same probability for every listed kind (the CLI demo default)."""
        return cls(seed=seed, rates={k: rate for k in kinds}, **kw)

    @classmethod
    def scheduled(cls, schedule: Mapping[str, Sequence[int]],
                  seed: int = 0xFA017, **kw) -> "FaultPlan":
        """Fire exactly at the named opportunity indices, nothing else."""
        return cls(seed=seed, schedule=schedule, **kw)


class FaultInjector:
    """Runtime half: consulted at every fault opportunity.

    Each rig owns one.  With no plan (or an empty one) nothing ever
    fires and every countdown is effectively infinite, so the hot paths
    run the same code whether or not a plan is armed.  When *counter* is
    given, each injection is also recorded as a ``fault.<kind>`` event,
    making the injected history part of the run's observable telemetry.

    Bookkeeping per stream: opportunities ``[_start, _start + _lease)``
    are leased to the hot paths, which count them off :attr:`left`; so
    ``_start + _lease - left`` opportunities have been consumed.  The
    opportunity at which a lease runs out goes through :meth:`fire`'s
    slow half, which ticks a crash cut, decides the fault and grants the
    next lease.
    """

    def __init__(self, plan: Optional[FaultPlan] = None,
                 counter=None) -> None:
        self.plan = plan if plan is not None and plan.active else None
        self.counter = counter
        self._schedule: Dict[str, list] = {}
        if self.plan is not None:
            self._schedule = {k: sorted(set(v))
                              for k, v in self.plan.schedule.items()}
        # crash-cut state (armed by the repro.durability harness); a cut
        # only ever shortens leases, it never makes ``fire`` inject.
        self.crash_plan: Optional[CrashPlan] = None
        self.injected: Counter = Counter()
        self._cuts: Counter = Counter()
        self.reset()

    def reset(self) -> None:
        """Forget counters, RNG state and countdowns (a fresh, identical
        run); an armed crash plan stays armed and counts from zero."""
        self.injected.clear()
        self._cuts.clear()
        self._rngs: Dict[str, np.random.Generator] = {}
        #: Opportunities each stream may still consume before its next
        #: event (a firing, a crash cut, or the end of what the lookahead
        #: has drawn).  Hot paths subtract whole runs from it (a run of
        #: TLP copies, or an inline payload with no event inside); at 0
        #: the next opportunity must go through :meth:`fire`.
        self.left: Dict[str, int] = dict.fromkeys(_STREAMS, 0)
        self._start: Dict[str, int] = dict.fromkeys(_STREAMS, 0)
        self._lease: Dict[str, int] = dict.fromkeys(_STREAMS, 0)
        #: Per kind: ``(index, fires)`` — opportunities before *index*
        #: are known not to fire; *index* fires if *fires*, else it is
        #: where the drawn-ahead block ends.
        self._stop: Dict[str, Tuple[int, bool]] = dict.fromkeys(
            ALL_KINDS, (0, False))
        #: Per kind, the last block drawn: ``(state before it, first
        #: index, end index)`` — what :meth:`_rewind` needs.
        self._drawn: Dict[str, Tuple[dict, int, int]] = {}

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    @property
    def opportunities(self) -> Counter:
        """Opportunities consumed per fault kind so far (exact)."""
        start, lease, left = self._start, self._lease, self.left
        return Counter({k: used for k in ALL_KINDS
                        if (used := start[k] + lease[k] - left[k])})

    @property
    def crash_opportunities(self) -> Counter:
        """Cut opportunities per cut kind since the crash plan was armed."""
        for stream in _CUT_OF_STREAM:
            self._settle(stream)
        return self._cuts

    def _settle(self, stream: str) -> None:
        """Fold what the hot paths consumed of *stream*'s lease into
        ``_start``; the rest of the lease stays granted."""
        left = self.left[stream]
        used = self._lease[stream] - left
        if used:
            self._start[stream] += used
            self._lease[stream] = left
            if self.crash_plan is not None and stream in _CUT_OF_STREAM:
                self._cuts[_CUT_OF_STREAM[stream]] += used

    def _revoke(self, stream: str) -> None:
        """Settle *stream* and take back its lease: its next opportunity
        goes through :meth:`fire`'s slow half."""
        self._settle(stream)
        self._lease[stream] = self.left[stream] = 0

    # ------------------------------------------------------------------
    # crash cuts (repro.durability)
    # ------------------------------------------------------------------
    def arm_crash(self, plan: CrashPlan) -> None:
        """Arm a power-cut point; opportunity counting starts at zero."""
        for stream in _CUT_OF_STREAM:
            self._settle(stream)
        self.crash_plan = plan
        self._cuts.clear()
        for stream in _CUT_SOURCES[plan.cut_kind]:
            self._revoke(stream)

    def disarm_crash(self) -> None:
        """Disarm the cut (recovery traffic must not re-cut)."""
        for stream in _CUT_OF_STREAM:
            self._settle(stream)
        self.crash_plan = None

    def _crash_tick(self, stream: str, cut: str) -> int:
        """Count one cut opportunity of *cut*; raise at the cut.

        Returns how many more ticks of *cut* may pass before the cut
        (``_NEVER`` when it is not the armed kind), after taking every
        other source stream's lease of the same cut back — so only
        *stream* holds the remaining budget.
        """
        plan = self.crash_plan
        armed = plan is not None and plan.cut_kind == cut
        if armed:
            for other in _CUT_SOURCES[cut]:
                if other != stream:
                    self._revoke(other)
        ticks = self._cuts[cut]
        self._cuts[cut] = ticks + 1
        if not armed or ticks > plan.cut_index:
            return _NEVER
        if ticks == plan.cut_index:
            raise CrashCut(cut, plan.cut_index)
        return plan.cut_index - ticks - 1

    # ------------------------------------------------------------------
    # the countdown
    # ------------------------------------------------------------------
    def fire(self, kind: str) -> bool:
        """Consume one opportunity of *kind*; True means inject now.

        *kind* is a fault kind or :data:`MMIO_TLP` (which never fires).
        A crash cut armed on the kind's cut stream raises
        :class:`CrashCut` here, before the fault decision.
        """
        left = self.left
        n = left[kind]
        if n:
            left[kind] = n - 1
            return False
        return self._decide(kind)

    def _decide(self, kind: str) -> bool:
        """The opportunity at which *kind*'s lease ran out."""
        self._settle(kind)
        n = self._start[kind]
        budget = _NEVER
        if self.crash_plan is not None and kind in _CUT_OF_STREAM:
            budget = self._crash_tick(kind, _CUT_OF_STREAM[kind])
        hit = False
        if kind != MMIO_TLP:
            stop, fires = self._stop[kind]
            if stop == n and not fires:
                stop, fires = self._lookahead(kind, n)
            if stop == n:
                hit = True
                self.injected[kind] += 1
                if self.counter is not None:
                    self.counter.record_event(fault_event(kind))
                stop, fires = n + 1, False
            self._stop[kind] = (stop, fires)
            budget = min(budget, stop - n - 1)
        self._start[kind] = n + 1
        self._lease[kind] = self.left[kind] = budget
        return hit

    def _rng(self, kind: str) -> np.random.Generator:
        rng = self._rngs.get(kind)
        if rng is None:
            rng = make_rng(self.plan.seed, stream=f"fault.{kind}")
            self._rngs[kind] = rng
        return rng

    def _lookahead(self, kind: str, n: int) -> Tuple[int, bool]:
        """The next stop at or after opportunity *n*, drawing ahead.

        Returns ``(index, fires)``; no opportunity in ``[n, index)``
        fires.  When a firing is found the stream is left exactly where
        one draw per opportunity up to and including it would leave it.
        """
        plan = self.plan
        if plan is None:
            return _NEVER, False
        limit = plan.limits.get(kind)
        if limit is not None and self.injected[kind] >= limit:
            return _NEVER, False
        sched = self._schedule.get(kind, ())
        at = bisect_left(sched, n)
        next_sched = sched[at] if at < len(sched) else _NEVER
        rate = plan.rates.get(kind, 0.0)
        if rate <= 0.0 or next_sched == n:
            return next_sched, next_sched != _NEVER
        size = min(next_sched - n, int(min(_MAX_BLOCK, 1.0 / rate)))
        rng = self._rng(kind)
        state = rng.bit_generator.state
        below = np.flatnonzero(rng.random(size) < rate)
        if below.size:
            size = int(below[0]) + 1
            rng.bit_generator.state = state
            rng.random(size)
            stop, fires = n + size - 1, True
        else:
            stop, fires = n + size, n + size == next_sched
        self._drawn[kind] = (state, n, n + size)
        return stop, fires

    def _rewind(self, kind: str) -> None:
        """Put *kind*'s stream back at its per-opportunity position if a
        lookahead has drawn past the opportunities consumed so far."""
        drawn = self._drawn.pop(kind, None)
        if drawn is None:
            return
        state, first, end = drawn
        self._revoke(kind)
        pos = self._start[kind]
        if end > pos:
            rng = self._rng(kind)
            rng.bit_generator.state = state
            if pos > first:
                rng.random(pos - first)
            self._stop[kind] = (pos, False)

    def corrupt_length(self, value: int) -> int:
        """Deterministically garble an inline-length field.

        The garbled value is forced out of the valid inline range so the
        controller's decode check *detects* the corruption — modelling the
        end-to-end protection a real reserved-field consumer needs (an
        undetectable flip would be silent data corruption, which the
        acceptance tests exist to rule out).  The mask comes from the
        ``corrupt_inline_length`` stream, at the position one draw per
        opportunity would have reached.
        """
        self._rewind(CORRUPT_INLINE_LENGTH)
        mask = int(self._rng(CORRUPT_INLINE_LENGTH).integers(1, 1 << 20))
        from repro.core.inline_command import MAX_INLINE_BYTES
        return ((value ^ mask) | (MAX_INLINE_BYTES + 1)) & 0xFFFFFFFF
