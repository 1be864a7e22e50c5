"""NVMe passthrough request model (the `nvme_passthru_cmd` ioctl analogue).

KV-SSDs and CSDs talk to the device through passthrough (paper §2.1):
user-level APIs encode high-level operations as custom NVMe commands and
hand them to the driver, bypassing the block layer.  This module defines
the request/response records exchanged across that boundary; the driver
(:mod:`repro.host.driver`) implements the submission itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.nvme.constants import DEFAULT_NSID, STATUS_SUCCESS


@dataclass(slots=True)
class PassthruRequest:
    """Mirror of ``struct nvme_passthru_cmd``: a raw command plus a user
    data buffer the driver must map for the transfer."""

    opcode: int
    nsid: int = DEFAULT_NSID
    #: Host→device payload for writes; None for data-less commands.
    data: Optional[bytes] = None
    #: Expected device→host transfer length for reads.
    read_len: int = 0
    #: The SQE's metadata-pointer word (the ioctl's ``metadata`` field);
    #: NVMe-KV carries the first 8 key bytes here.
    mptr: int = 0
    cdw10: int = 0
    cdw11: int = 0
    #: Keyed-command words (NVMe-KV: key length, per-opcode bound).
    #: CDW12/13 are not fields: the driver derives them from the data
    #: (write length) and *read_len* (read length).
    cdw14: int = 0
    cdw15: int = 0

    def __post_init__(self) -> None:
        if self.data is not None and self.read_len:
            raise ValueError("a passthrough command is either a write or a read")
        if self.read_len < 0:
            raise ValueError("negative read length")
        if self.data is not None and (self.mptr or self.cdw14 or self.cdw15):
            raise ValueError("a write carries CDW10/11 only: its host codec "
                             "owns the rest of the SQE")

    @property
    def is_write(self) -> bool:
        return self.data is not None

    @property
    def data_len(self) -> int:
        return len(self.data) if self.data is not None else self.read_len


@dataclass(slots=True)
class PassthruResult:
    """Completion surfaced back through the ioctl."""

    status: int
    result: int = 0
    #: Device→host data for read-style commands.
    data: Optional[bytes] = None
    #: End-to-end simulated latency of this command (ns).
    latency_ns: float = 0.0
    #: PCIe bytes attributable to this command (both directions).
    pcie_bytes: int = 0

    @property
    def ok(self) -> bool:
        return self.status == STATUS_SUCCESS
