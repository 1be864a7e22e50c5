"""NVMe controller register map (BAR0 properties).

The subset of the NVMe register file the driver needs to bring a
controller up: capabilities, configuration/status for the enable
handshake, and the admin-queue base/size registers.  Doorbells live above
``DOORBELL_BASE`` (see :mod:`repro.pcie.mmio`).
"""

from __future__ import annotations

# -- register offsets (NVMe base spec, section 3.1) -------------------------
REG_CAP_LO = 0x00    # controller capabilities (low dword)
REG_CAP_HI = 0x04    # controller capabilities (high dword)
REG_VS = 0x08        # version
REG_CC = 0x14        # controller configuration
REG_CSTS = 0x1C      # controller status
REG_AQA = 0x24       # admin queue attributes (sizes)
REG_ASQ_LO = 0x28    # admin submission queue base
REG_ASQ_HI = 0x2C
REG_ACQ_LO = 0x30    # admin completion queue base
REG_ACQ_HI = 0x34

# -- CC bits -----------------------------------------------------------------
CC_ENABLE = 1 << 0

# -- CSTS bits ---------------------------------------------------------------
CSTS_READY = 1 << 0
CSTS_FATAL = 1 << 5

#: NVMe version 1.4 encoded as (major << 16) | (minor << 8).
VERSION_1_4 = (1 << 16) | (4 << 8)
#: CAP.TO: worst-case CC.EN → CSTS.RDY time, in 500 ms units (15 s).
CAP_TIMEOUT_500MS = 30


def cap_value(max_queue_entries: int) -> int:
    """Build the 64-bit CAP value: MQES (0-based), CQR=1, TO, DSTRD=0."""
    mqes = max_queue_entries - 1
    if not 1 <= mqes <= 0xFFFF:
        raise ValueError("MQES out of range")
    return mqes | (1 << 16) | (CAP_TIMEOUT_500MS << 24)


def aqa_value(asq_depth: int, acq_depth: int) -> int:
    """Admin queue attributes: 0-based sizes, ASQS low / ACQS high."""
    if not (2 <= asq_depth <= 4096 and 2 <= acq_depth <= 4096):
        raise ValueError("admin queue depth out of range")
    return (asq_depth - 1) | ((acq_depth - 1) << 16)


def split_aqa(aqa: int) -> tuple:
    """Inverse of :func:`aqa_value` → (asq_depth, acq_depth)."""
    return (aqa & 0xFFF) + 1, ((aqa >> 16) & 0xFFF) + 1
