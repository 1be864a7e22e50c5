"""NVMe Key-Value command set codec (TP 4015-style, adapted to the model).

Encoding conventions used by this KV-SSD:

* **STORE**: the host→device payload is ``key_len u16 | key | value``;
  a non-zero CDW14 must match the key length (the device validates it).
  The payload travels by whichever transfer method is selected (PRP,
  BandSlim, ByteExpress, ...), which is exactly the data path the paper's
  Figure 6 compares.
* **RETRIEVE / DELETE / EXIST / LIST**: the key (≤16 B, the KV command
  set's fixed key field) rides inside the command itself — packed into
  the unused metadata pointer and CDW10/11 by :func:`key_field_words` —
  with CDW14 holding the key length.  RETRIEVE and LIST return data
  through the normal read data path and report its length in the CQE
  result field; LIST's CDW15 bounds the key count.
"""

from __future__ import annotations

import struct
from typing import Iterable, List, Tuple

from repro.nvme.command import NvmeCommand

#: The NVMe KV command set's fixed in-command key field size.
MAX_INLINE_KEY = 16

_STORE_HEADER = struct.Struct("<H")


class KvEncodingError(ValueError):
    """Key/value cannot be represented in the command set."""


def encode_store_payload(key: bytes, value: bytes) -> bytes:
    """Serialise a STORE payload (key_len | key | value)."""
    if not key:
        raise KvEncodingError("empty key")
    if len(key) > 0xFFFF:
        raise KvEncodingError("key exceeds 16-bit length field")
    return _STORE_HEADER.pack(len(key)) + key + value


def decode_store_payload(payload: bytes) -> Tuple[bytes, bytes]:
    """Inverse of :func:`encode_store_payload`."""
    if len(payload) < _STORE_HEADER.size:
        raise KvEncodingError("truncated STORE payload")
    (key_len,) = _STORE_HEADER.unpack_from(payload)
    body = payload[_STORE_HEADER.size:]
    if len(body) < key_len:
        raise KvEncodingError("STORE payload shorter than its key")
    return body[:key_len], body[key_len:]


def key_field_words(key: bytes) -> Tuple[int, int, int, int]:
    """Encode a ≤16 B key as its command-word tuple.

    Returns ``(mptr, cdw10, cdw11, cdw14)`` — the raw words every
    keyed command carries (``KVStore``'s passthrough requests and the
    async engine's keyed path), with CDW14 carrying the key length.
    The key field is the key NUL-padded to 16 B, little-endian: padding
    only adds high zero bytes, so the three words are bit slices of one
    ``int.from_bytes`` of the key itself.  A key with trailing NULs
    keeps them, since CDW14 carries its length.
    """
    key_len = len(key)
    if not 0 < key_len <= MAX_INLINE_KEY:
        if not key_len:
            raise KvEncodingError("empty key")
        raise KvEncodingError(
            f"key of {key_len} B exceeds the {MAX_INLINE_KEY} B key field")
    field = int.from_bytes(key, "little")
    return (field & 0xFFFF_FFFF_FFFF_FFFF, (field >> 64) & 0xFFFF_FFFF,
            field >> 96, key_len)


def unpack_key_fields(cmd: NvmeCommand) -> bytes:
    """Recover the in-command key (device side): the inverse of
    :func:`key_field_words`, one ``int.to_bytes`` of the 16 B field."""
    key_len = cmd.cdw14
    if not 0 < key_len <= MAX_INLINE_KEY:
        raise KvEncodingError(f"bad in-command key length {key_len}")
    return ((cmd.cdw11 << 96) | (cmd.cdw10 << 64) | cmd.mptr).to_bytes(
        MAX_INLINE_KEY, "little")[:key_len]


_PAIR_HEADER = struct.Struct("<HI")


def encode_batch_payload(pairs: Iterable[Tuple[bytes, bytes]]) -> bytes:
    """Serialise a compound STORE: u16 count | (u16 klen|u32 vlen|k|v)*.

    The bulk-PUT alternative of §2.2.1 — one command carries many pairs,
    trading per-pair persistence granularity for protocol amortisation.
    """
    pairs = list(pairs)
    if not pairs:
        raise KvEncodingError("empty batch")
    if len(pairs) > 0xFFFF:
        raise KvEncodingError("batch exceeds 16-bit count field")
    out = bytearray(len(pairs).to_bytes(2, "little"))
    for key, value in pairs:
        if not key:
            raise KvEncodingError("empty key in batch")
        if len(key) > 0xFFFF or len(value) >= (1 << 32):
            raise KvEncodingError("key/value exceeds field width")
        out += _PAIR_HEADER.pack(len(key), len(value)) + key + value
    return bytes(out)


def decode_batch_payload(raw: bytes) -> List[Tuple[bytes, bytes]]:
    """Inverse of :func:`encode_batch_payload`."""
    if len(raw) < 2:
        raise KvEncodingError("truncated batch payload")
    count = int.from_bytes(raw[:2], "little")
    pairs: List[Tuple[bytes, bytes]] = []
    pos = 2
    for _ in range(count):
        if pos + _PAIR_HEADER.size > len(raw):
            raise KvEncodingError("truncated batch pair header")
        klen, vlen = _PAIR_HEADER.unpack_from(raw, pos)
        pos += _PAIR_HEADER.size
        if pos + klen + vlen > len(raw):
            raise KvEncodingError("truncated batch pair body")
        pairs.append((raw[pos:pos + klen], raw[pos + klen:pos + klen + vlen]))
        pos += klen + vlen
    return pairs


def decode_key_list(raw: bytes) -> Tuple[bytes, ...]:
    """Decode a LIST response: u32 count | (u16 key_len | key)*."""
    if len(raw) < 4:
        raise KvEncodingError("truncated key list")
    count = int.from_bytes(raw[:4], "little")
    keys: List[bytes] = []
    pos = 4
    for _ in range(count):
        if pos + 2 > len(raw):
            raise KvEncodingError("truncated key list entry")
        key_len = int.from_bytes(raw[pos:pos + 2], "little")
        pos += 2
        if pos + key_len > len(raw):
            raise KvEncodingError("truncated key in list")
        keys.append(raw[pos:pos + key_len])
        pos += key_len
    return tuple(keys)
