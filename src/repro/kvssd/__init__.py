"""KV-SSD substrate: value log, LSM index, KV command set, device
personality, the host key-value API, and the serving front-end."""

from repro.kvssd.api import KeyNotFoundError, KvError, KVStore
from repro.kvssd.cache import CacheStats, ShardedReadCache
from repro.kvssd.commands import (
    MAX_INLINE_KEY,
    KvEncodingError,
    decode_batch_payload,
    decode_key_list,
    decode_store_payload,
    encode_batch_payload,
    encode_store_payload,
    key_field_words,
    unpack_key_fields,
)
from repro.kvssd.kvssd import KvSsdPersonality
from repro.kvssd.lsm import TOMBSTONE, LsmIndex, SsTable
from repro.kvssd.service import (
    KvFuture,
    KvService,
    KvSession,
    ServiceError,
    ServiceStats,
)
from repro.kvssd.value_log import LogPointer, ValueLog

__all__ = [
    "KVStore",
    "KvService",
    "KvSession",
    "KvFuture",
    "ServiceError",
    "ServiceStats",
    "ShardedReadCache",
    "CacheStats",
    "key_field_words",
    "KvError",
    "KeyNotFoundError",
    "KvSsdPersonality",
    "ValueLog",
    "LogPointer",
    "LsmIndex",
    "SsTable",
    "TOMBSTONE",
    "encode_store_payload",
    "decode_store_payload",
    "unpack_key_fields",
    "decode_key_list",
    "encode_batch_payload",
    "decode_batch_payload",
    "KvEncodingError",
    "MAX_INLINE_KEY",
]
