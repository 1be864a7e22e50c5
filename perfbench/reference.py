"""The machine's current speed, measured with a fixed reference workload.

On a shared virtual machine the speed of one vCPU drifts by up to 2x
over seconds to minutes as other tenants come and go, and CPU time does
not hide that: the slowdown comes from the hardware the vCPU shares.
So the benchmark runs a small, fixed piece of Python — :class:`Reference`,
a toy event simulation of the same kind as the program's own code —
interleaved with the program, one step after every timed slice.  Both
see the same machine at the same moments, so the program's CPU time
over the reference's CPU time is steady where either alone is not.

:class:`Meter` does the interleaving and the bookkeeping.  Throughput
and set-up time are scaled to ``REF_STEP_S``, the CPU time of one
reference step on a quiet 2-vCPU Xeon VM with Python 3.11, so they read
as seconds of that machine.

Do not change :class:`Reference` or ``REF_STEP_S``: every scaled metric
would move with them.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, List, Optional, Tuple

#: CPU seconds of one :meth:`Reference.step` on the quiet reference
#: machine.
REF_STEP_S = 0.0005

_cpu = time.thread_time


class _Event:
    __slots__ = ("due", "seq", "queue", "size")

    def __init__(self, due: int, seq: int, queue: int, size: int) -> None:
        self.due = due
        self.seq = seq
        self.queue = queue
        self.size = size

    def __lt__(self, other: "_Event") -> bool:
        return (self.due, self.seq) < (other.due, other.seq)


class _Queue:
    def __init__(self, qid: int) -> None:
        self.qid = qid
        self.done = 0
        self.bytes = 0
        self.last: List[int] = []

    def complete(self, ev: _Event, payload: bytes) -> None:
        self.done += 1
        self.bytes += len(payload)
        self.last.append(ev.seq)
        if len(self.last) > 32:
            del self.last[:16]


class Reference:
    """A toy event simulation doing the same work at every step."""

    STEP_EVENTS = 160

    def __init__(self) -> None:
        self.heap: List[_Event] = []
        self.queues = [_Queue(i) for i in range(8)]
        self.table: Dict[Tuple[int, int], int] = {}
        self.blob = bytes(range(256)) * 17
        self.x = 1
        self.seq = 0
        self.now = 0
        for _ in range(256):
            self._schedule()

    def _schedule(self) -> None:
        self.x = r = (self.x * 1103515245 + 12345) & 0x7FFFFFFF
        self.seq += 1
        heapq.heappush(self.heap, _Event(self.now + 1 + r % 1000, self.seq,
                                         r & 7, 16 + (r >> 8) % 1024))

    def step(self) -> int:
        """One fixed unit of work, about ``REF_STEP_S`` of CPU time."""
        heap = self.heap
        table = self.table
        blob = self.blob
        queues = self.queues
        for _ in range(self.STEP_EVENTS):
            ev = heapq.heappop(heap)
            self.now = ev.due
            queues[ev.queue].complete(ev, blob[ev.size & 0xFF:ev.size])
            key = (ev.queue, ev.size >> 4)
            table[key] = table.get(key, 0) + 1
            self._schedule()
        return self.now


class Meter:
    """CPU time of a rig's work, with a reference step after each slice.

    :meth:`start` opens a timed stretch of work, :meth:`tick` ends a
    slice of it (and runs one reference step, outside the work's time),
    :meth:`stop` ends the stretch as a last slice.  Without a reference
    the meter only times the work.
    """

    def __init__(self, reference: Optional[Reference] = None) -> None:
        self.reference = reference
        #: CPU seconds of work, and of the reference steps between it.
        self.work_s = 0.0
        self.ref_s = 0.0
        self.steps = 0
        self._last = 0.0

    def start(self) -> None:
        self._last = _cpu()

    def tick(self) -> None:
        now = _cpu()
        self.work_s += now - self._last
        if self.reference is not None:
            self.reference.step()
            self.steps += 1
            after = _cpu()
            self.ref_s += after - now
            now = after
        self._last = now

    stop = tick

    def slowdown(self) -> float:
        """The machine's slowness over the work: reference CPU time per
        step over ``REF_STEP_S``."""
        return self.ref_s / self.steps / REF_STEP_S

    def burst(self, steps: int) -> float:
        """Run *steps* reference steps alone; returns their slowdown."""
        assert self.reference is not None
        t0 = _cpu()
        for _ in range(steps):
            self.reference.step()
        return (_cpu() - t0) / steps / REF_STEP_S
