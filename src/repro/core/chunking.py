"""Payload chunking for inline SQ transfer.

ByteExpress places payloads into the submission queue as 64-byte chunks —
one SQ entry per chunk, zero-padded at the tail (paper §3.3).  The chunk
size equals the SQE size by construction, so the device's existing 64 B
command-fetch DMA path moves them unmodified.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.nvme.constants import SQE_SIZE

#: Inline chunk size: one submission-queue entry.
CHUNK_SIZE = SQE_SIZE


def chunk_count(nbytes: int) -> int:
    """SQ entries needed to carry *nbytes* inline."""
    if nbytes < 0:
        raise ValueError("negative payload length")
    return (nbytes + CHUNK_SIZE - 1) // CHUNK_SIZE


def split_payload(payload: bytes) -> List[bytes]:
    """Split *payload* into zero-padded 64-byte chunks.

    >>> [len(c) for c in split_payload(b"x" * 100)]
    [64, 64]
    """
    chunks: List[bytes] = []
    for off in range(0, len(payload), CHUNK_SIZE):
        piece = payload[off:off + CHUNK_SIZE]
        if len(piece) < CHUNK_SIZE:
            piece = piece + b"\x00" * (CHUNK_SIZE - len(piece))
        chunks.append(piece)
    return chunks


def join_chunks(chunks: Sequence[bytes], nbytes: int) -> bytes:
    """Reassemble the original payload from its chunks.

    Inverse of :func:`split_payload` given the true length (the controller
    knows it from the command's reserved field).
    """
    if chunk_count(nbytes) != len(chunks):
        raise ValueError(
            f"{len(chunks)} chunks cannot carry a {nbytes}-byte payload")
    for i, c in enumerate(chunks):
        if len(c) != CHUNK_SIZE:
            raise ValueError(f"chunk {i} is {len(c)} bytes, expected {CHUNK_SIZE}")
    return b"".join(chunks)[:nbytes]
