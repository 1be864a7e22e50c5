"""NVMe protocol constants: opcodes, status codes, field encodings.

Includes the standard NVM command set, the NVMe Key-Value command set used
by KV-SSDs (TP 4015 opcodes), and the vendor-specific opcodes used by the
simulated computational-storage (CSD) pushdown path, mirroring how real CSD
prototypes carve out vendor opcodes for task delivery.
"""

from __future__ import annotations

import enum

# ---------------------------------------------------------------------------
# sizes
# ---------------------------------------------------------------------------
SQE_SIZE = 64
CQE_SIZE = 16
PAGE_SIZE = 4096
PRP_ENTRY_SIZE = 8
SGL_DESC_SIZE = 16
#: Usable inline payload bytes in one BandSlim fragment CMD: CDW2-3,
#: CDW10-15 and the 12 spare bytes of the unused metadata pointer = 36 B
#: of guaranteed-reusable space (matches BandSlim's "one CMD covers sub-32 B
#: payloads" behaviour once a 4-byte fragment header is carved out).
BANDSLIM_FRAGMENT_CAPACITY = 32


class IoOpcode(enum.IntEnum):
    """NVM command set I/O opcodes."""

    FLUSH = 0x00
    WRITE = 0x01
    READ = 0x02
    WRITE_UNCORRECTABLE = 0x04
    COMPARE = 0x05
    WRITE_ZEROES = 0x08
    DSM = 0x09


class KvOpcode(enum.IntEnum):
    """NVMe Key-Value command set opcodes (TP 4015)."""

    STORE = 0x01
    RETRIEVE = 0x02
    LIST = 0x06
    DELETE = 0x10
    EXIST = 0x14


class VendorOpcode(enum.IntEnum):
    """Vendor-specific opcodes used by the simulated CSD."""

    #: Submit a filter task (table id + predicate payload).
    CSD_PUSHDOWN = 0xC0
    #: Fetch filter results produced by a previous pushdown.
    CSD_FETCH_RESULT = 0xC1
    #: Compound/batched KV store: many pairs in one command (§2.2.1's
    #: bulk-PUT alternative, per HotStorage '19 compound commands).
    KV_BATCH_STORE = 0xC8
    #: Create a table on the device (schema upload).
    CSD_CREATE_TABLE = 0xC4
    #: Append packed rows to a device table.
    CSD_LOAD_ROWS = 0xC5
    #: BandSlim payload-fragment command (§3.2 comparator).
    BANDSLIM_FRAG = 0xD0


class AdminOpcode(enum.IntEnum):
    DELETE_SQ = 0x00
    CREATE_SQ = 0x01
    DELETE_CQ = 0x04
    CREATE_CQ = 0x05
    IDENTIFY = 0x06
    #: Doorbell Buffer Config (NVMe 1.3, originally for virtualised
    #: controllers): PRP1 = shadow-doorbell page, PRP2 = eventidx page.
    DBBUF_CONFIG = 0x7C


class StatusCode(enum.IntEnum):
    """Generic command status (CQE DW3 status field, SCT=0)."""

    SUCCESS = 0x00
    INVALID_OPCODE = 0x01
    INVALID_FIELD = 0x02
    DATA_TRANSFER_ERROR = 0x04
    INTERNAL_ERROR = 0x06
    ABORTED_BY_REQUEST = 0x07
    INVALID_PRP_OFFSET = 0x13
    #: Command names a namespace the queue is not allowed to touch (or
    #: nsid 0 on an I/O command while namespace enforcement is armed).
    INVALID_NAMESPACE_OR_FORMAT = 0x0B
    #: NVMe 1.4: command interrupted mid-execution; retry is expected.
    COMMAND_INTERRUPTED = 0x21
    #: NVMe 1.4: transient transport (link-level) error; retry is expected.
    TRANSIENT_TRANSPORT_ERROR = 0x22
    #: The device has no room left for the write.
    CAPACITY_EXCEEDED = 0x81
    #: Vendor: key not found (KV retrieve/delete miss).
    KV_KEY_NOT_FOUND = 0x87
    #: Vendor: NAND program failure surfaced to the host.
    MEDIA_WRITE_FAULT = 0x80


#: ``StatusCode.SUCCESS`` as a plain int, for the compares every command
#: makes on its way through the completion path: an enum class attribute
#: read costs about seven times a module global on CPython 3.11.
STATUS_SUCCESS = int(StatusCode.SUCCESS)

#: Status codes the host driver may retry without DNR guidance: transient
#: transfer/transport failures, never semantic rejections.
RETRYABLE_STATUS_CODES = frozenset({
    StatusCode.DATA_TRANSFER_ERROR,
    StatusCode.COMMAND_INTERRUPTED,
    StatusCode.TRANSIENT_TRANSPORT_ERROR,
})


class Psdt(enum.IntEnum):
    """PRP or SGL for data transfer (command flags bits 7:6)."""

    PRP = 0b00
    SGL_MPTR_CONTIG = 0b01
    SGL_MPTR_SGL = 0b10


#: Queue id of the admin queue pair.
ADMIN_QID = 0

#: The namespace every single-tenant host path targets.  Convention: I/O
#: commands built by the host stack (engine, passthru, batch helpers)
#: carry this nsid unless the caller says otherwise; ``NvmeCommand``
#: itself keeps a raw default of 0 because admin commands legitimately
#: carry nsid 0.  Once device-side namespace enforcement is armed
#: (``repro.virt``), nsid 0 on an I/O command is rejected with
#: :attr:`StatusCode.INVALID_NAMESPACE_OR_FORMAT`.
DEFAULT_NSID = 1
