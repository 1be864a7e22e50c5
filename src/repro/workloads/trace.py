"""Workload trace recording and replay.

Lets users capture a key-value operation stream (from the generators or
from their own application logic) to a JSON-lines file and replay it
byte-exactly later — e.g. to compare transfer methods on a production
trace rather than a synthetic distribution, which is exactly how the
paper's motivating studies (Meta's RocksDB analysis) were produced.

Format: one JSON object per line:
``{"op": "put", "key": "<hex>", "value": "<hex>"}``
(``get``/``delete`` records omit the value).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, List, Union

from repro.kvssd.commands import MAX_INLINE_KEY
from repro.workloads.mixgraph import KvOp

_VALUELESS = ("get", "delete", "exists")


def dump_trace(ops: Iterable[KvOp], path: Union[str, Path]) -> int:
    """Write *ops* to *path*; returns the number of records written."""
    count = 0
    with open(path, "w", encoding="ascii") as fh:
        for op in ops:
            record = {"op": op.op, "key": op.key.hex()}
            if op.op not in _VALUELESS:
                record["value"] = op.value.hex()
            fh.write(json.dumps(record) + "\n")
            count += 1
    return count


def load_trace(path: Union[str, Path]) -> Iterator[KvOp]:
    """Replay a trace file as :class:`KvOp` objects."""
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                op = record["op"]
                key = bytes.fromhex(record["key"])
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: bad trace record: {exc}")
            if not key:
                raise ValueError(f"{path}:{lineno}: empty key")
            if len(key) > MAX_INLINE_KEY:
                raise ValueError(f"{path}:{lineno}: key of {len(key)} B "
                                 f"exceeds the {MAX_INLINE_KEY} B key field")
            value = bytes.fromhex(record.get("value", ""))
            if op not in ("put",) + _VALUELESS:
                raise ValueError(f"{path}:{lineno}: unknown op {op!r}")
            yield KvOp(op, key, value)


class TraceRecorder:
    """Wraps a KV store, recording every operation it forwards."""

    def __init__(self, store) -> None:
        self.store = store
        self.ops: List[KvOp] = []

    def put(self, key: bytes, value: bytes):
        result = self.store.put(key, value)
        self.ops.append(KvOp("put", key, value))
        return result

    def get(self, key: bytes, **kwargs):
        result = self.store.get(key, **kwargs)
        self.ops.append(KvOp("get", key))
        return result

    def delete(self, key: bytes):
        result = self.store.delete(key)
        self.ops.append(KvOp("delete", key))
        return result

    def save(self, path: Union[str, Path]) -> int:
        return dump_trace(self.ops, path)
