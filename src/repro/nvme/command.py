"""The 64-byte NVMe submission queue entry (SQE) codec.

Field layout follows the NVMe base specification:

====  =======================================================
DW    contents
====  =======================================================
0     opcode (7:0) | flags (15:8) | command id (31:16)
1     namespace id
2-3   command-specific / reserved  <-- ByteExpress lives here
4-5   metadata pointer
6-9   data pointer (PRP1+PRP2, or one SGL data-block descriptor)
10-15 command dwords 10..15
====  =======================================================

ByteExpress (paper §3.3.1) repurposes a reserved field to carry the inline
payload length: we use CDW2, which is reserved for non-fused NVM commands.
A zero value means "normal command"; a non-zero value marks the command as
ByteExpress and gives the byte length of the payload that follows inline in
the submission queue.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.nvme.constants import SQE_SIZE, Psdt

_SQE_STRUCT = struct.Struct("<BBH I I I Q Q Q 6I")
assert _SQE_STRUCT.size == SQE_SIZE


@dataclass(slots=True)
class NvmeCommand:
    """One submission-queue entry, mutable until packed."""

    opcode: int = 0
    flags: int = 0
    cid: int = 0
    #: Stays 0 at the wire level (admin commands legitimately carry
    #: nsid 0); the host I/O stack targets ``DEFAULT_NSID`` by
    #: convention (see :mod:`repro.nvme.constants`), and nsid 0 on an
    #: I/O command is rejected once namespace enforcement is armed.
    nsid: int = 0
    cdw2: int = 0
    cdw3: int = 0
    mptr: int = 0
    prp1: int = 0
    prp2: int = 0
    cdw10: int = 0
    cdw11: int = 0
    cdw12: int = 0
    cdw13: int = 0
    cdw14: int = 0
    cdw15: int = 0

    # ------------------------------------------------------------------
    # wire codec
    # ------------------------------------------------------------------
    def pack(self) -> bytes:
        """Serialise to the 64-byte wire format."""
        try:
            return _SQE_STRUCT.pack(
                self.opcode, self.flags, self.cid, self.nsid,
                self.cdw2, self.cdw3, self.mptr, self.prp1, self.prp2,
                self.cdw10, self.cdw11, self.cdw12,
                self.cdw13, self.cdw14, self.cdw15,
            )
        except struct.error:
            # The struct formats enforce exactly the field widths; run the
            # field-by-field check only on failure for its precise message.
            self._validate()
            raise

    @classmethod
    def unpack(cls, raw: bytes) -> "NvmeCommand":
        """Parse a 64-byte SQE."""
        try:
            fields = _SQE_STRUCT.unpack(raw)
        except struct.error:
            # The struct format is exactly SQE_SIZE bytes: a size
            # mismatch is the only way a bytes-like input fails here.
            raise ValueError(
                f"SQE must be {SQE_SIZE} bytes, got {len(raw)}") from None
        return cls(*fields)

    def _validate(self) -> None:
        for name, bits in (("opcode", 8), ("flags", 8), ("cid", 16),
                           ("nsid", 32), ("cdw2", 32), ("cdw3", 32),
                           ("cdw10", 32), ("cdw11", 32), ("cdw12", 32),
                           ("cdw13", 32), ("cdw14", 32), ("cdw15", 32)):
            value = getattr(self, name)
            if not 0 <= value < (1 << bits):
                raise ValueError(f"{name}={value:#x} exceeds {bits} bits")
        for name in ("mptr", "prp1", "prp2"):
            value = getattr(self, name)
            if not 0 <= value < (1 << 64):
                raise ValueError(f"{name}={value:#x} exceeds 64 bits")

    # ------------------------------------------------------------------
    # data-pointer helpers
    # ------------------------------------------------------------------
    @property
    def psdt(self) -> Psdt:
        """PRP-or-SGL selector from the flags field (bits 7:6)."""
        return Psdt((self.flags >> 6) & 0b11)

    def use_sgl(self) -> None:
        self.flags = (self.flags & 0x3F) | (Psdt.SGL_MPTR_CONTIG << 6)

    # ------------------------------------------------------------------
    # ByteExpress reserved-field encoding (paper §3.3.1)
    # ------------------------------------------------------------------
    @property
    def inline_length(self) -> int:
        """Inline payload length; 0 means no ByteExpress semantics."""
        return self.cdw2

    def set_inline_length(self, nbytes: int) -> None:
        if nbytes <= 0:
            raise ValueError("inline payload length must be positive")
        if nbytes >= (1 << 32):
            raise ValueError("inline payload length exceeds field width")
        self.cdw2 = nbytes

    @property
    def is_byteexpress(self) -> bool:
        return self.cdw2 != 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NvmeCommand):
            return NotImplemented
        return self.pack() == other.pack()
