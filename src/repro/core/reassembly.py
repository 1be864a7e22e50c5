"""Identifier-based out-of-order chunk reassembly (paper §3.3.2, future work).

The baseline ByteExpress design assumes all chunks of one payload are
fetched from a single SQ, queue-locally.  The paper sketches a relaxation
for controllers that interleave fetches across SQs: each chunk embeds a
small header — payload ID, chunk number, total chunk count — so the
controller can place it directly at the right DRAM offset with only
lightweight SRAM state (payload ID + receive bitmap) per in-flight payload.

This module implements that sketch fully so the ablation benchmark can
compare queue-local fetching against tagged reassembly under multi-SQ
interleaving.

Tagged chunk layout (64 B):  payload_id u32 | chunk_no u16 | total u16 |
56 B of data.  Capacity per chunk drops from 64 to 56 bytes — the cost of
relaxing the ordering constraint, which the ablation quantifies.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.nvme.constants import SQE_SIZE

_HEADER = struct.Struct("<IHH")
#: Data bytes carried per tagged chunk.
TAGGED_CAPACITY = SQE_SIZE - _HEADER.size


class ReassemblyError(Exception):
    """Malformed tagged chunk or inconsistent reassembly state."""


def tagged_chunk_count(nbytes: int) -> int:
    """Tagged chunks needed for *nbytes* of payload."""
    if nbytes <= 0:
        raise ValueError("payload must be non-empty")
    return (nbytes + TAGGED_CAPACITY - 1) // TAGGED_CAPACITY


def split_tagged(payload: bytes, payload_id: int) -> List[bytes]:
    """Split *payload* into self-describing 64 B tagged chunks."""
    if not 0 <= payload_id < (1 << 32):
        raise ValueError("payload id exceeds 32 bits")
    total = tagged_chunk_count(len(payload))
    if total >= (1 << 16):
        raise ValueError("payload too large for 16-bit chunk count")
    chunks: List[bytes] = []
    for no in range(total):
        piece = payload[no * TAGGED_CAPACITY:(no + 1) * TAGGED_CAPACITY]
        body = piece + b"\x00" * (TAGGED_CAPACITY - len(piece))
        chunks.append(_HEADER.pack(payload_id, no, total) + body)
    return chunks


def parse_tagged(chunk: bytes):
    """Decode one tagged chunk → (payload_id, chunk_no, total, data)."""
    if len(chunk) != SQE_SIZE:
        raise ReassemblyError(f"tagged chunk must be {SQE_SIZE} bytes")
    payload_id, no, total = _HEADER.unpack_from(chunk)
    if total == 0:
        raise ReassemblyError("tagged chunk declares zero total chunks")
    if no >= total:
        raise ReassemblyError(f"chunk number {no} >= total {total}")
    return payload_id, no, total, chunk[_HEADER.size:]


@dataclass
class _InFlight:
    """SRAM-resident tracking state for one payload (paper: payload ID +
    receive bitmap only; data goes straight to DRAM)."""

    total: int
    payload_len: int
    bitmap: int = 0
    dram: bytearray = field(default_factory=bytearray)

    def __post_init__(self) -> None:
        self.dram = bytearray(self.total * TAGGED_CAPACITY)

    @property
    def complete(self) -> bool:
        return self.bitmap == (1 << self.total) - 1


class ReassemblyBuffer:
    """Device-side reassembly of tagged chunks arriving in any order.

    ``sram_bytes`` models the per-payload tracking cost the paper argues is
    small: 4 B id + 2 B total + bitmap bits, rounded up per entry.
    """

    def __init__(self, max_in_flight: int = 64) -> None:
        self.max_in_flight = max_in_flight
        self._inflight: Dict[int, _InFlight] = {}
        #: Expected true payload lengths, registered from the command's
        #: reserved field when the ByteExpress command itself arrives.
        self._expected_len: Dict[int, int] = {}
        #: Most payloads ever tracked concurrently — the engine's scaling
        #: reports surface this against ``max_in_flight`` to show how close
        #: multi-SQ interleaving comes to the modelled SRAM budget.
        self.high_water = 0

    def expect(self, payload_id: int, payload_len: int) -> None:
        """Register the command-side metadata for *payload_id*."""
        if payload_len <= 0:
            raise ReassemblyError("expected payload length must be positive")
        self._expected_len[payload_id] = payload_len

    def abort(self, payload_id: int) -> None:
        """Drop all state for *payload_id* (host abandoned the command).

        Idempotent: aborting an id that was never registered, or that
        already completed, is a no-op — exactly what a timeout-driven
        host cleanup path needs.
        """
        self._inflight.pop(payload_id, None)
        self._expected_len.pop(payload_id, None)

    def accept(self, chunk: bytes) -> Optional[bytes]:
        """Consume one tagged chunk; returns the payload when complete."""
        payload_id, no, total, data = parse_tagged(chunk)
        entry = self._inflight.get(payload_id)
        if entry is None:
            if len(self._inflight) >= self.max_in_flight:
                raise ReassemblyError(
                    f"too many in-flight payloads (max {self.max_in_flight})")
            expected = self._expected_len.get(payload_id)
            if expected is None:
                raise ReassemblyError(
                    f"chunk for unknown payload id {payload_id}")
            if tagged_chunk_count(expected) != total:
                raise ReassemblyError(
                    f"payload {payload_id}: command promised "
                    f"{tagged_chunk_count(expected)} chunks, chunk says {total}")
            entry = _InFlight(total=total, payload_len=expected)
            self._inflight[payload_id] = entry
            self.high_water = max(self.high_water, len(self._inflight))
        if entry.total != total:
            raise ReassemblyError(
                f"payload {payload_id}: inconsistent total chunk count")
        bit = 1 << no
        if entry.bitmap & bit:
            raise ReassemblyError(
                f"payload {payload_id}: duplicate chunk {no}")
        entry.bitmap |= bit
        # Direct placement at the correct DRAM offset — no staging queue.
        entry.dram[no * TAGGED_CAPACITY:(no + 1) * TAGGED_CAPACITY] = data
        if not entry.complete:
            return None
        del self._inflight[payload_id]
        del self._expected_len[payload_id]
        return bytes(entry.dram[:entry.payload_len])

    @property
    def in_flight(self) -> int:
        return len(self._inflight)

    @property
    def sram_bytes(self) -> int:
        """Modelled SRAM tracking footprint for current in-flight payloads."""
        total = 0
        for entry in self._inflight.values():
            total += 4 + 2 + (entry.total + 7) // 8  # id + total + bitmap
        return total
