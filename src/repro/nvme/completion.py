"""The 16-byte NVMe completion queue entry (CQE) codec.

====  ===========================================
DW    contents
====  ===========================================
0     command-specific result
1     reserved
2     SQ head pointer (15:0) | SQ id (31:16)
3     command id (15:0) | phase (16) | status (31:17)
====  ===========================================

The 15-bit status field carries the status code in its low 14 bits and
the spec's DNR ("Do Not Retry") flag in its top bit: the device's signal
for whether the host's retry/backoff loop may resubmit the command.
Transient faults (dropped TLPs, corrupted inline fetches) complete with
DNR clear; semantic rejections (bad opcode, malformed fields from the
host itself) complete with DNR set.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.nvme.constants import CQE_SIZE, StatusCode

_CQE_STRUCT = struct.Struct("<IIHHHH")
assert _CQE_STRUCT.size == CQE_SIZE

#: DNR flag position inside the packed (phase | status) half-word.
_DNR_BIT = 1 << 15


@dataclass(slots=True)
class NvmeCompletion:
    """One completion-queue entry."""

    result: int = 0
    sq_head: int = 0
    sq_id: int = 0
    cid: int = 0
    phase: int = 0
    status: int = StatusCode.SUCCESS
    #: Do Not Retry: set when resubmitting the command cannot succeed.
    dnr: bool = False

    def pack(self) -> bytes:
        if not 0 <= self.result < (1 << 32):
            raise ValueError("result exceeds 32 bits")
        if not 0 <= self.status < (1 << 14):
            raise ValueError("status exceeds 14 bits")
        dw3_hi = ((_DNR_BIT if self.dnr else 0)
                  | (self.status << 1) | (self.phase & 1))
        return _CQE_STRUCT.pack(self.result, 0, self.sq_head, self.sq_id,
                                self.cid, dw3_hi)

    @classmethod
    def unpack(cls, raw: bytes) -> "NvmeCompletion":
        # The struct format is exactly CQE_SIZE bytes: anything else is
        # refused, as ``struct.unpack`` would refuse it.
        if len(raw) != CQE_SIZE:
            raise ValueError(f"CQE must be {CQE_SIZE} bytes, got {len(raw)}")
        return cls.unpack_from(raw, 0)

    @classmethod
    def unpack_from(cls, buf, offset: int) -> "NvmeCompletion":
        """Parse the 16-byte CQE at *offset* of *buf* (a ring's host
        frame) in place, without copying it out first."""
        result, _rsvd, sq_head, sq_id, cid, dw3_hi = (
            _CQE_STRUCT.unpack_from(buf, offset))
        # Positional construction: this sits on the host's CQ poll path.
        return cls(result, sq_head, sq_id, cid,
                   dw3_hi & 1, (dw3_hi >> 1) & 0x3FFF,
                   bool(dw3_hi & _DNR_BIT))

    @property
    def ok(self) -> bool:
        return self.status == StatusCode.SUCCESS

    @property
    def retryable(self) -> bool:
        """A failure the host driver is allowed to resubmit."""
        return not self.ok and not self.dnr

    @property
    def command_key(self) -> "tuple[int, int]":
        """The (sq_id, cid) pair that identifies the completed command.

        At queue depth > 1 completions arrive out of submission order;
        the engine's in-flight table is keyed by exactly this pair, which
        is the only identity the CQE carries back to the host.
        """
        return (self.sq_id, self.cid)
