"""Datapath specifications: one entry per transfer method.

A :class:`DatapathSpec` is what the stack needs to know about one
transfer method:

* its **name** (:mod:`repro.datapath.names`);
* **capability flags** (:class:`DatapathCaps`) — what the rest of the
  stack may ask of the method (inline transport, tag reassembly,
  fragmentation, Figure-5 membership, the BAR byte window);
* a **host codec** — how the driver encodes the SQE and moves the
  payload (PRP staging, SGL segments, inline chunk append, tagged
  chunks, BandSlim fragment commands).  Every queue-protocol write path
  has one; methods outside the queue protocol (MMIO, PIO) or layered
  over other methods (hybrid) leave it ``None``.  Only codec-bearing
  methods run at QD>1 (the async engine, the crash harness).

Specs are plain frozen data; behaviour lives in the codec objects they
reference.  The method roster is the static :data:`repro.datapath.SPECS`
table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.core.chunking import chunk_count
from repro.core.reassembly import tagged_chunk_count
from repro.nvme.constants import BANDSLIM_FRAGMENT_CAPACITY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datapath.codecs import HostCodec


@dataclass(frozen=True)
class DatapathCaps:
    """What a transfer method supports, declared once in its spec.

    Engine support is no flag: a method rides the async engine iff its
    spec carries a host codec (:func:`repro.engine.engine.engine_methods`).
    """

    #: The payload rides the submission queue itself (ByteExpress family):
    #: subject to the circuit breaker and the firmware capability bit.
    inline: bool = False
    #: Chunks are self-describing and reassembled out of order; requires
    #: a controller built in ``MODE_TAGGED``.
    tag_reassembly: bool = False
    #: The payload is split across multiple NVMe commands (BandSlim).
    fragmented: bool = False
    #: Swept by the Figure-5 benchmark and the CLI sweep default.
    figure5: bool = False
    #: Uses the MMIO BAR byte window instead of the queue protocol; only
    #: built when a testbed asks for the window (``include_mmio``).
    bar_window: bool = False
    #: Subject to the circuit breaker: the payload rides the queue
    #: (inline) or command fields (fragmented), so a faulty link can keep
    #: failing it where the PRP baseline would not.  Derived, not passed:
    #: ``inline or fragmented``, computed once (it is read per command).
    breaker_guarded: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "breaker_guarded",
                           self.inline or self.fragmented)

    def slots_needed(self, payload_len: int, tagged: bool = False) -> int:
        """Worst-case SQ slots one submission of *payload_len* occupies."""
        if self.inline:
            if tagged or self.tag_reassembly:
                return 1 + tagged_chunk_count(payload_len)
            return 1 + chunk_count(payload_len)
        if self.fragmented:
            cap = BANDSLIM_FRAGMENT_CAPACITY
            return max(1, (payload_len + cap - 1) // cap)
        return 1


@dataclass(frozen=True)
class DatapathSpec:
    """One transfer method's datapath description."""

    name: str
    caps: DatapathCaps = field(default_factory=DatapathCaps)
    #: Driver-side encoder; ``None`` for layered/orchestrated methods.
    host_codec: Optional["HostCodec"] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("datapath spec needs a non-empty name")
        if self.caps.tag_reassembly and not self.caps.inline:
            raise ValueError(
                f"{self.name}: tag reassembly implies the inline transport")
