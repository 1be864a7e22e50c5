"""Common interface for small-payload transfer methods.

Every mechanism the paper compares — PRP (stock NVMe), SGL, BandSlim
(NVMe-CMD-based), the PCIe-MMIO byte interface (2B-SSD/ByteFS style),
ByteExpress, and the hybrid policy — implements one call:

    stats = method.write(payload, opcode=..., cdw10=...)

and reports uniform :class:`TransferStats`, so benchmarks sweep methods
interchangeably.  Methods are bound to a driver + device pair and issue
real protocol operations; nothing here is an analytic shortcut.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.metrics.stats import LatencyRecorder
from repro.nvme.constants import IoOpcode
from repro.nvme.passthrough import PassthruRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datapath.spec import DatapathSpec
    from repro.host.driver import NvmeDriver


@dataclass
class TransferStats:
    """Measured outcome of one payload transfer."""

    method: str
    payload_len: int
    latency_ns: float
    pcie_bytes: int
    #: NVMe commands issued on the wire (BandSlim >1 for large payloads).
    commands: int = 1
    status: int = 0

    @property
    def ok(self) -> bool:
        return self.status == 0

    @property
    def amplification(self) -> float:
        """PCIe bytes per payload byte (Figure 1(c))."""
        if self.payload_len == 0:
            return 0.0
        return self.pcie_bytes / self.payload_len


@dataclass
class AggregateStats:
    """Accumulated over a workload run (one Figure-5/6/7 data point).

    Per-op latencies are recorded so benches can report the paper's
    1st–99th percentile error bars (Figure 6) alongside the mean:
    ``agg.latency.summary()``.
    """

    method: str
    ops: int = 0
    payload_bytes: int = 0
    pcie_bytes: int = 0
    total_latency_ns: float = 0.0
    commands: int = 0
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)

    def add(self, stats: TransferStats) -> None:
        if stats.method != self.method:
            raise ValueError(
                f"mixing methods: {stats.method} into {self.method}")
        self.ops += 1
        self.payload_bytes += stats.payload_len
        self.pcie_bytes += stats.pcie_bytes
        self.total_latency_ns += stats.latency_ns
        self.commands += stats.commands
        self.latency.record(stats.latency_ns)

    @property
    def mean_latency_ns(self) -> float:
        return self.total_latency_ns / self.ops if self.ops else 0.0

    @property
    def throughput_kops(self) -> float:
        """Operations per second in thousands, from simulated time."""
        if self.total_latency_ns == 0:
            return 0.0
        return self.ops / self.total_latency_ns * 1e6

    @property
    def amplification(self) -> float:
        if self.payload_bytes == 0:
            return 0.0
        return self.pcie_bytes / self.payload_bytes


class TransferMethod(abc.ABC):
    """A host→device small-payload write mechanism."""

    #: Stable identifier used in benchmark tables.
    name: str = "abstract"

    @abc.abstractmethod
    def write(self, payload: bytes, opcode: int = IoOpcode.WRITE,
              cdw10: int = 0, cdw11: int = 0, nsid: int = 1,
              qid: Optional[int] = None) -> TransferStats:
        """Deliver *payload* to the device under *opcode* semantics."""

    def run_workload(self, payloads, **kwargs) -> AggregateStats:
        """Issue every payload in sequence, accumulating statistics."""
        agg = AggregateStats(method=self.name)
        for payload in payloads:
            agg.add(self.write(payload, **kwargs))
        return agg


class PassthruTransfer(TransferMethod):
    """A queue-protocol method: each write is one synchronous
    ``driver.passthru`` through *spec*'s host codec, so every codec
    method (PRP, SGL, ByteExpress, tagged ByteExpress, BandSlim) shares
    the driver's retry, timeout and breaker recovery."""

    def __init__(self, driver: "NvmeDriver", spec: "DatapathSpec") -> None:
        self.driver = driver
        self.spec = spec
        self.name = spec.name

    def write(self, payload: bytes, opcode: int = IoOpcode.WRITE,
              cdw10: int = 0, cdw11: int = 0, nsid: int = 1,
              qid: Optional[int] = None) -> TransferStats:
        req = PassthruRequest(opcode=opcode, nsid=nsid, data=payload,
                              cdw10=cdw10, cdw11=cdw11)
        result = self.driver.passthru(req, method=self.spec, qid=qid)
        return TransferStats(method=self.name, payload_len=len(payload),
                             latency_ns=result.latency_ns,
                             pcie_bytes=result.pcie_bytes,
                             commands=1, status=result.status)
