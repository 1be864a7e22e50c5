"""Simulated nanosecond clock.

Every component in the simulated stack shares a :class:`SimClock`.  The model
is a *cost-accounting* simulation: operations advance the clock by their
modelled duration rather than being scheduled on an event queue.  This is
sufficient for the paper's observables (per-operation latency, aggregate PCIe
traffic, pipelined throughput), and keeps single-operation traces exactly
decomposable into protocol phases.

The clock also supports *spans*: named, nested intervals used to attribute
time to protocol phases (driver submit, doorbell, command fetch, data
transfer, completion).  Benchmarks use span totals to regenerate Table 1
of the paper, which reports per-phase overheads.  Only the per-name
totals are kept, so span storage is bounded by the number of span names,
not by the number of operations.
"""

from __future__ import annotations

import math
from typing import Dict, List


class _SpanScope:
    """Class-based context manager for :meth:`SimClock.span`.

    The generator-based ``@contextmanager`` costs several function calls
    and a generator frame per entry; spans sit on every hot-loop protocol
    action, so this is one of the highest-traffic allocations in the
    simulator.
    """

    __slots__ = ("_clock", "_name", "_start")

    def __init__(self, clock: "SimClock", name: str) -> None:
        self._clock = clock
        self._name = name

    def __enter__(self) -> None:
        self._start = self._clock.now

    def __exit__(self, *exc) -> None:
        self._clock.span_end(self._name, self._start)


class SimClock:
    """Monotonic simulated clock measured in nanoseconds.

    >>> clk = SimClock()
    >>> clk.advance(100)
    >>> clk.now
    100.0

    *jitter* adds a seeded log-normal perturbation to every ``advance``
    (e.g. ``jitter=0.05`` for ~5 % dispersion).  The default is exactly
    zero — tests and Table-1 calibration rely on determinism — but the
    Figure-6 benchmarks enable it to reproduce the paper's 1st–99th
    percentile error bars, which on real hardware come from exactly this
    kind of per-phase variance.

    ``now`` is a plain attribute (read ~10 times per simulated I/O; a
    property descriptor call was measurable).  Treat it as read-only:
    only ``advance``/``advance_repeat``/``advance_to`` may move the
    clock, and only forward.  It is simulation scaffolding, not
    modelled state: it joins no persistence domain, and a power cut
    never rewinds it.
    """

    def __init__(self, start_ns: float = 0.0, jitter: float = 0.0,
                 seed: int = 0x7157) -> None:
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        #: Current simulated time in nanoseconds (read-only by convention).
        self.now = float(start_ns)
        #: Total duration per span name, added to in place as each span
        #: closes (in closing order, so the float sums are the same as
        #: summing a list of closed spans afterwards).
        self._span_totals: Dict[str, float] = {}
        #: Lane stack: while non-empty, every advance is divided by its
        #: top entry.  It models N identical units progressing in
        #: parallel under processor sharing: when the firmware loop
        #: services N queues with N parallel fetch/DMA engines, each unit
        #: of per-command work only occupies ``1/N`` of wall-clock time.
        #: The cost-accounting clock is otherwise strictly serial, which
        #: would make multi-queue service no faster than single-queue —
        #: this is the one place the model expresses hardware
        #: concurrency.  Only ``CompletionReactor.drive_device`` pushes
        #: an entry (a lane count >= 1) around an overlapped device step,
        #: and pops it after.
        self._concurrency: List[float] = []
        self.jitter = jitter
        self._rng_state = seed & 0xFFFFFFFFFFFFFFFF or 1

    def _next_uniform(self) -> float:
        """xorshift64*: cheap, seeded, dependency-free uniform in (0,1)."""
        x = self._rng_state
        x ^= (x >> 12) & 0xFFFFFFFFFFFFFFFF
        x ^= (x << 25) & 0xFFFFFFFFFFFFFFFF
        x ^= (x >> 27) & 0xFFFFFFFFFFFFFFFF
        self._rng_state = x & 0xFFFFFFFFFFFFFFFF or 1
        return ((x * 0x2545F4914F6CDD1D) & 0xFFFFFFFFFFFFFFFF) / 2**64

    def advance(self, duration_ns: float) -> None:
        """Move the clock forward; negative durations are rejected."""
        if duration_ns < 0:
            raise ValueError(f"cannot advance clock by {duration_ns} ns")
        if self.jitter and duration_ns:
            # Log-normal-ish factor around 1: exp(j * (u1+u2+u3-1.5)) uses
            # an Irwin-Hall approximation of a Gaussian — seeded, fast.
            gaussian = (self._next_uniform() + self._next_uniform()
                        + self._next_uniform() - 1.5) * 2.0
            duration_ns *= math.exp(self.jitter * gaussian)
        if self._concurrency:
            duration_ns /= self._concurrency[-1]
        self.now += duration_ns

    def advance_repeat(self, duration_ns: float, count: int) -> None:
        """Advance by *duration_ns*, *count* times.

        Bit-identical to a loop of :meth:`advance` calls: the same
        per-step floating-point additions happen in the same order (a
        single ``advance(count * duration_ns)`` would change low-order
        bits), and with jitter enabled each step still draws its own
        perturbation so seeded RNG streams stay aligned.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if self.jitter:
            for _ in range(count):
                self.advance(duration_ns)
            return
        if duration_ns < 0:
            raise ValueError(f"cannot advance clock by {duration_ns} ns")
        step = (duration_ns / self._concurrency[-1] if self._concurrency
                else duration_ns)
        now = self.now
        for _ in range(count):
            now += step
        self.now = now

    def advance_to(self, t_ns: float) -> None:
        """Jump forward to an absolute time; no-op if already past it."""
        if t_ns > self.now:
            self.now = t_ns

    def span(self, name: str) -> "_SpanScope":
        """Record the simulated time spent inside the block under *name*."""
        return _SpanScope(self, name)

    def span_end(self, name: str, start_ns: float) -> None:
        """Close a span directly: the fast-path twin of :meth:`span` for
        hot loops, paired with reading :attr:`now` at the start of the
        region (use ``try/finally`` to match the context manager's
        record-on-exception behaviour)."""
        totals = self._span_totals
        try:
            totals[name] += self.now - start_ns
        except KeyError:
            totals[name] = self.now - start_ns

    def span_totals(self) -> Dict[str, float]:
        """Total duration per span name, in order of first close."""
        return dict(self._span_totals)

    def reset_spans(self) -> None:
        self._span_totals.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SimClock(now={self.now:.1f}ns, "
                f"spans={len(self._span_totals)})")
