"""ByteExpress core: chunking, inline commands, the controller patch,
out-of-order reassembly, and the hybrid switching policy.  The driver
half is :class:`repro.datapath.codecs.InlineWriteCodec`."""

from repro.core.chunking import CHUNK_SIZE, chunk_count, join_chunks, split_payload
from repro.core.controller_ext import (
    DeviceSqState,
    InlineFetchError,
    fetch_inline_payload,
)
from repro.core.hybrid import DEFAULT_THRESHOLD, HybridPolicy
from repro.core.inline_command import (
    MAX_INLINE_BYTES,
    InlineEncodingError,
    InlineInfo,
    inspect_command,
    make_inline_command,
)
from repro.core.reassembly import (
    TAGGED_CAPACITY,
    ReassemblyBuffer,
    ReassemblyError,
    parse_tagged,
    split_tagged,
    tagged_chunk_count,
)

__all__ = [
    "CHUNK_SIZE",
    "chunk_count",
    "split_payload",
    "join_chunks",
    "make_inline_command",
    "inspect_command",
    "InlineInfo",
    "InlineEncodingError",
    "MAX_INLINE_BYTES",
    "DeviceSqState",
    "fetch_inline_payload",
    "InlineFetchError",
    "ReassemblyBuffer",
    "ReassemblyError",
    "split_tagged",
    "parse_tagged",
    "tagged_chunk_count",
    "TAGGED_CAPACITY",
    "HybridPolicy",
    "DEFAULT_THRESHOLD",
]
