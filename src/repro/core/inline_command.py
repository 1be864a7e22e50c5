"""ByteExpress command construction and interpretation (paper §3.3.1).

Challenge #1 — *identifying the payload*: the driver already knows the
payload length at submission time (it is in the command's data-length
field); right before SQ insertion, ByteExpress re-encodes it into a
reserved field (CDW2 in this model).  A non-zero value both marks the
command as ByteExpress and tells the controller how many following SQ
entries are payload chunks rather than commands.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.chunking import chunk_count
from repro.nvme.command import NvmeCommand

#: Inline payloads above this length would not beat PRP on any testbed the
#: paper considers; the driver refuses them so a buggy caller cannot flood
#: the SQ (the hybrid policy in :mod:`repro.core.hybrid` is the intended
#: path for large payloads).
MAX_INLINE_BYTES = 64 * 1024


class InlineEncodingError(ValueError):
    """Raised for payloads that cannot be carried inline."""


def make_inline_command(cmd: NvmeCommand, payload_len: int) -> NvmeCommand:
    """Mark *cmd* as ByteExpress, carrying *payload_len* inline bytes.

    The original command fields are preserved — this is the paper's
    "<30 lines in nvme_queue_rq" change: only the reserved field is
    repurposed, so the command remains valid for non-ByteExpress firmware
    interpretation of every other field.
    """
    if payload_len <= 0:
        raise InlineEncodingError("inline payload must be non-empty")
    if payload_len > MAX_INLINE_BYTES:
        raise InlineEncodingError(
            f"inline payload of {payload_len} B exceeds {MAX_INLINE_BYTES} B")
    if cmd.cdw2 != 0:
        raise InlineEncodingError(
            "command already uses CDW2; cannot apply ByteExpress semantics")
    cmd.set_inline_length(payload_len)
    return cmd


@dataclass(frozen=True, slots=True)
class InlineInfo:
    """Device-side interpretation of a fetched command."""

    is_inline: bool
    payload_len: int
    chunks: int


#: Shared result for the (overwhelmingly common) non-inline case, plus a
#: small memo keyed by inline length — InlineInfo is frozen, so callers
#: can never observe the sharing.
_NOT_INLINE = InlineInfo(False, 0, 0)
_INFO_CACHE: dict = {}


def inspect_command(cmd: NvmeCommand) -> InlineInfo:
    """What the controller learns from the reserved field at fetch time."""
    n = cmd.cdw2  # the inline length (``cmd.inline_length``)
    if n == 0:
        return _NOT_INLINE
    try:
        return _INFO_CACHE[n]
    except KeyError:
        pass
    if n > MAX_INLINE_BYTES:
        raise InlineEncodingError(
            f"malformed inline length {n} in reserved field")
    if len(_INFO_CACHE) >= 4096:
        _INFO_CACHE.clear()
    info = _INFO_CACHE[n] = InlineInfo(True, n, chunk_count(n))
    return info
