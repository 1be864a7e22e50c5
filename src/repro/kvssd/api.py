"""Host-side key-value API over NVMe passthrough (paper §2.1, Figure 2).

The user-level library a KV-SSD application links against: PUT/GET/DELETE/
EXIST calls are translated into KV commands and submitted through the
NVMe driver.  The PUT payload path is pluggable — the Figure 6 benchmark
instantiates one store per transfer method and replays identical
workloads through each.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.kvssd.commands import (
    MAX_INLINE_KEY,
    KvEncodingError,
    decode_key_list,
    encode_batch_payload,
    encode_store_payload,
    key_field_words,
)
from repro.host.driver import NvmeDriver
from repro.nvme.constants import KvOpcode, StatusCode, VendorOpcode
from repro.nvme.passthrough import PassthruRequest, PassthruResult
from repro.transfer.base import TransferMethod, TransferStats


class KvError(Exception):
    """Host-visible key-value operation failure."""


class KeyNotFoundError(KvError):
    """GET/DELETE/EXIST on a missing key."""


class KVStore:
    """A key-value store client bound to one KV-SSD."""

    def __init__(self, driver: NvmeDriver, put_method: TransferMethod,
                 qid: Optional[int] = None) -> None:
        self.driver = driver
        self.put_method = put_method
        self.qid = qid if qid is not None else driver.default_qid()

    # ------------------------------------------------------------------
    def put(self, key: bytes, value: bytes) -> TransferStats:
        """Store one pair; returns the transfer measurement for the op."""
        self._check_key(key)
        payload = encode_store_payload(key, value)
        stats = self.put_method.write(payload, opcode=KvOpcode.STORE,
                                      qid=self.qid)
        if not stats.ok:
            raise KvError(f"STORE failed with status {stats.status:#x}")
        return stats

    def get(self, key: bytes, max_value_len: int = 4096) -> bytes:
        """Fetch the value for *key* (keys are limited to 16 bytes)."""
        res = self._keyed(KvOpcode.RETRIEVE, key, read_len=max_value_len)
        if res.status == StatusCode.KV_KEY_NOT_FOUND:
            raise KeyNotFoundError(key.hex())
        if not res.ok:
            raise KvError(f"RETRIEVE failed with status {res.status:#x}")
        value_len = res.result
        if value_len > max_value_len:
            raise KvError(
                f"value of {value_len} B exceeds buffer of {max_value_len} B")
        return (res.data or b"")[:value_len]

    def delete(self, key: bytes) -> None:
        """Remove *key*.  A retried DELETE whose lost-CQE attempt already
        ran finds the key gone and raises :class:`KeyNotFoundError`."""
        res = self._keyed(KvOpcode.DELETE, key)
        if res.status == StatusCode.KV_KEY_NOT_FOUND:
            raise KeyNotFoundError(key.hex())
        if not res.ok:
            raise KvError(f"DELETE failed with status {res.status:#x}")

    def exists(self, key: bytes) -> bool:
        res = self._keyed(KvOpcode.EXIST, key)
        if res.status == StatusCode.KV_KEY_NOT_FOUND:
            return False
        if not res.ok:
            raise KvError(f"EXIST failed with status {res.status:#x}")
        return True

    def put_batch(self,
                  pairs: Iterable[Tuple[bytes, bytes]]) -> TransferStats:
        """Compound PUT: many pairs in one command (§2.2.1 bulk-PUT).

        Amortises per-command protocol cost at the price of per-pair
        persistence granularity — all pairs complete (and become durable)
        together.
        """
        pairs = list(pairs)
        for key, _ in pairs:
            self._check_key(key)
        payload = encode_batch_payload(pairs)
        stats = self.put_method.write(payload,
                                      opcode=VendorOpcode.KV_BATCH_STORE,
                                      qid=self.qid)
        if not stats.ok:
            raise KvError(f"batch STORE failed with status "
                          f"{stats.status:#x}")
        return stats

    def list_keys(self, start_key: bytes = b"\x00",
                  max_keys: int = 64, max_len: int = 8192) -> List[bytes]:
        """Enumerate up to *max_keys* keys ≥ *start_key*, in order."""
        if max_keys <= 0:
            raise KvEncodingError("max_keys must be positive")
        # CDW15 bounds the count.
        res = self._keyed(KvOpcode.LIST, start_key, read_len=max_len,
                          cdw15=max_keys)
        if not res.ok:
            raise KvError(f"LIST failed with status {res.status:#x}")
        # The CQE result reports the response's byte length (mirroring
        # get()'s value-length contract) — decode exactly that, not the
        # whole worst-case buffer.
        list_len = res.result
        if list_len > max_len:
            raise KvError(
                f"key list of {list_len} B exceeds buffer of {max_len} B")
        return list(decode_key_list((res.data or b"")[:list_len]))

    # ------------------------------------------------------------------
    def _keyed(self, opcode: int, key: bytes, read_len: int = 0,
               cdw15: int = 0) -> PassthruResult:
        """One keyed command through ``passthru``: the key rides the
        SQE's key field (mptr + CDW10/11, its length in CDW14), so the
        command gets passthru's retry, timeout and re-ring recovery."""
        self._check_key(key)
        mptr, cdw10, cdw11, cdw14 = key_field_words(key)
        return self.driver.passthru(
            PassthruRequest(opcode=opcode, read_len=read_len, mptr=mptr,
                            cdw10=cdw10, cdw11=cdw11, cdw14=cdw14,
                            cdw15=cdw15),
            qid=self.qid)

    @staticmethod
    def _check_key(key: bytes) -> None:
        if not key:
            raise KvError("empty key")
        if len(key) > MAX_INLINE_KEY:
            raise KvError(
                f"key of {len(key)} B exceeds the {MAX_INLINE_KEY} B "
                f"in-command key field")
