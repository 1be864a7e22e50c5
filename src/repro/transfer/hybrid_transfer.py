"""Hybrid ByteExpress/PRP transfer (paper §4.2).

Applies :class:`repro.core.hybrid.HybridPolicy`: payloads at or below the
threshold ride the submission queue inline; larger ones take the stock
PRP path.  Because ByteExpress leaves the NVMe architecture untouched,
the two coexist per command with no coordination — the property the
paper highlights over MMIO-based designs."""

from __future__ import annotations

from typing import Optional

from repro.datapath import names as dp_names
from repro.core.hybrid import HybridPolicy
from repro.nvme.constants import IoOpcode
from repro.transfer.base import TransferMethod, TransferStats


class HybridTransfer(TransferMethod):
    name = dp_names.HYBRID

    def __init__(self, byteexpress: TransferMethod, prp: TransferMethod,
                 policy: Optional[HybridPolicy] = None) -> None:
        self.byteexpress = byteexpress
        self.prp = prp
        self.policy = policy or HybridPolicy()
        self.inline_ops = 0
        self.prp_ops = 0

    def write(self, payload: bytes, opcode: int = IoOpcode.WRITE,
              cdw10: int = 0, cdw11: int = 0, nsid: int = 1,
              qid: Optional[int] = None) -> TransferStats:
        choice = self.policy.choose(len(payload))
        if choice == dp_names.BYTEEXPRESS:
            self.inline_ops += 1
            inner = self.byteexpress.write(payload, opcode=opcode,
                                           cdw10=cdw10, cdw11=cdw11,
                                           nsid=nsid, qid=qid)
        else:
            self.prp_ops += 1
            inner = self.prp.write(payload, opcode=opcode, cdw10=cdw10,
                                   cdw11=cdw11, nsid=nsid, qid=qid)
        return TransferStats(method=self.name,
                             payload_len=inner.payload_len,
                             latency_ns=inner.latency_ns,
                             pcie_bytes=inner.pcie_bytes,
                             commands=inner.commands, status=inner.status)
