"""KV serving front-end: session multiplexing over the async engine.

This is the "served system" shape of the ROADMAP's ordered KV front-end:
thousands of client sessions multiplexed onto one :class:`IoEngine`,
with three serving optimisations layered over the raw KV command set —

* **Group-commit write batching.**  PUTs arriving within a batching
  window coalesce into one ``KV_BATCH_STORE`` compound command that
  rides the selected inline/burst datapath; every member PUT gets its
  own :class:`KvFuture`, all resolved when the group commits.  The
  window closes early when the batch reaches ``batch_max_pairs`` or a
  read needs one of its keys (a read barrier).
* **Sharded invalidating read cache.**  GET hits are served from host
  memory at zero simulated-time and zero link cost; PUT/DELETE/commit
  invalidate before acknowledging, so a GET never observes a value
  older than its session's last acknowledged write.  Disabled
  (``cache_entries=0``) the cache is never consulted — the traffic
  fingerprint is byte-identical to the per-op path.
* **Ordered range scan.**  :meth:`scan` pages the device's LSM iterator
  through LIST commands and reads values through (not around) the
  cache-coherence machinery, so a scan started after a write barrier
  sees that write.

The service is deliberately *not* re-entrant with simulated time: like
the engine it fronts, a single host thread drives :meth:`poll`, and all
concurrency is expressed through outstanding futures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List, Optional,
                    Tuple, Union)

from repro.datapath import names as dp_names
from repro.engine.engine import IoEngine
from repro.engine.table import CommandFuture
from repro.kvssd.cache import CacheStats, ShardedReadCache
from repro.kvssd.commands import (
    MAX_INLINE_KEY,
    decode_key_list,
    encode_batch_payload,
    encode_store_payload,
    key_field_words,
)
from repro.nvme.constants import KvOpcode, StatusCode, VendorOpcode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kvssd.kvssd import KvSsdPersonality

#: Future lifecycle states (mirrors the engine's vocabulary).
PENDING = "pending"
OK = "ok"
NOT_FOUND = "not_found"
FAILED = "failed"

#: Where a resolved GET's value came from.
FROM_CACHE = "cache"
FROM_DEVICE = "device"


class ServiceError(Exception):
    """Misuse of the serving API (bad key, closed session, ...)."""


class KvFuture:
    """Completion handle for one client operation.

    Unlike the engine's :class:`CommandFuture` this is a *serving-level*
    future: one PUT future may share a single device command with dozens
    of others (group commit), and one GET future may resolve with no
    device command at all (cache hit).
    """

    __slots__ = ("op", "key", "value", "state", "status", "served_from",
                 "submit_ns", "latency_ns", "session_id")

    def __init__(self, op: str, key: bytes, session_id: int,
                 submit_ns: float) -> None:
        self.op = op
        self.key = key
        self.session_id = session_id
        self.submit_ns = submit_ns
        self.value: Optional[bytes] = None
        self.state = PENDING
        #: NVMe status of the resolving command; None for cache hits.
        self.status: Optional[int] = None
        self.served_from: Optional[str] = None
        self.latency_ns: float = 0.0

    @property
    def done(self) -> bool:
        return self.state != PENDING

    @property
    def ok(self) -> bool:
        return self.state == OK

    @property
    def not_found(self) -> bool:
        return self.state == NOT_FOUND

    def result(self) -> bytes:
        """The GET value; raises while pending or on failure."""
        if not self.done:
            raise ServiceError("operation still in flight")
        if self.state == NOT_FOUND:
            raise KeyError(self.key.hex())
        if self.state != OK:
            raise ServiceError(
                f"{self.op} failed with status "
                f"{self.status:#x}" if self.status is not None
                else f"{self.op} failed without a completion")
        return self.value if self.value is not None else b""

    def _resolve(self, state: str, now_ns: float,
                 status: Optional[int] = None,
                 value: Optional[bytes] = None,
                 served_from: Optional[str] = None) -> None:
        if self.done:
            raise ServiceError(f"future already resolved ({self.state})")
        self.state = state
        self.status = status
        self.value = value
        self.served_from = served_from
        self.latency_ns = now_ns - self.submit_ns

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"KvFuture({self.op}, {self.key!r}, {self.state}, "
                f"from={self.served_from})")


@dataclass
class ServiceStats:
    """Aggregate serving counters (cache counters live on the cache)."""

    puts: int = 0
    gets: int = 0
    deletes: int = 0
    scans: int = 0
    #: KV_BATCH_STORE commands issued and the pairs they carried.
    batches: int = 0
    batched_pairs: int = 0
    #: Batch-close causes.
    flush_size: int = 0
    flush_deadline: int = 0
    flush_explicit: int = 0
    flush_barrier: int = 0
    #: GET/DELETEs parked behind a pending write to the same key.
    deferred_ops: int = 0

    @property
    def mean_batch_pairs(self) -> float:
        return self.batched_pairs / self.batches if self.batches else 0.0


@dataclass
class _BatchRecord:
    """One group commit: the open (or in-flight) write batch."""

    pairs: List[Tuple[bytes, bytes]] = field(default_factory=list)
    futures: List[KvFuture] = field(default_factory=list)
    deadline_ns: float = float("inf")
    #: Thunks to run after the group commits — deferred reads/deletes
    #: whose key this batch is about to overwrite.
    followers: List[Callable[[], None]] = field(default_factory=list)
    committed: bool = False


class KvSession:
    """One client session: an ordered stream of operations.

    The session id doubles as the engine *stream* tag, so the
    multi-queue scheduler can keep a session's commands on one SQ/CQ
    pair (queue affinity) while spreading sessions across queues.
    """

    __slots__ = ("service", "session_id", "ops", "closed")

    def __init__(self, service: "KvService", session_id: int) -> None:
        self.service = service
        self.session_id = session_id
        self.ops = 0
        self.closed = False

    def _check(self) -> None:
        if self.closed:
            raise ServiceError(f"session {self.session_id} is closed")
        self.ops += 1

    def put(self, key: bytes, value: bytes) -> KvFuture:
        self._check()
        return self.service._put(key, value, self.session_id)

    def get(self, key: bytes) -> KvFuture:
        self._check()
        return self.service._get(key, self.session_id)

    def delete(self, key: bytes) -> KvFuture:
        self._check()
        return self.service._delete(key, self.session_id)

    def scan(self, start: bytes, end: Optional[bytes] = None,
             page_size: int = 64) -> Iterator[Tuple[bytes, bytes]]:
        self._check()
        return self.service.scan(start, end, page_size=page_size)

    def close(self) -> None:
        self.closed = True
        self.service._sessions.pop(self.session_id, None)


class KvService:
    """The serving front-end over one engine + KV-SSD personality.

    ``batch_window_ns=0`` disables group commit (every PUT is its own
    STORE command) and ``cache_entries=0`` disables the read cache;
    with both off the device-visible traffic is byte-identical to
    driving the engine per-op, which the golden parity test pins.
    """

    #: Monitor hook: the protocol monitor (REPRO_VERIFY=1) patches this
    #: *instance* attribute to shadow-read every cache hit from the
    #: device; the class-level default keeps detach() restoring a plain
    #: no-hook state.  Signature: hook(key, value) -> None.
    on_cache_hit: Optional[Callable[[bytes, bytes], None]] = None

    def __init__(self, engine: IoEngine,
                 personality: Optional["KvSsdPersonality"] = None,
                 method: str = dp_names.BYTEEXPRESS,
                 batch_window_ns: float = 0.0,
                 batch_max_pairs: int = 32,
                 cache_entries: int = 0,
                 cache_shards: int = 8,
                 max_value_bytes: int = 4096,
                 nsid: Optional[int] = None) -> None:
        if batch_window_ns < 0:
            raise ServiceError(
                f"negative batch window {batch_window_ns}")
        if batch_max_pairs <= 0:
            raise ServiceError(
                f"batch_max_pairs must be positive, got {batch_max_pairs}")
        self.engine = engine
        self.personality = personality
        self.clock = engine.clock
        self.method = method
        self.batch_window_ns = batch_window_ns
        self.batch_max_pairs = batch_max_pairs
        self.max_value_bytes = max_value_bytes
        self.nsid = nsid
        self.cache: Optional[ShardedReadCache] = (
            ShardedReadCache(cache_entries, cache_shards)
            if cache_entries > 0 else None)
        self.stats = ServiceStats()
        self._sessions: Dict[int, KvSession] = {}
        self._next_session = 0
        #: The open (not yet submitted) write batch, if any.
        self._open: Optional[_BatchRecord] = None
        #: key → batch record that will write it (open or in flight).
        #: A GET/DELETE for one of these keys must not pass the write.
        self._pending: Dict[bytes, _BatchRecord] = {}
        #: Engine futures we are waiting on, in submission order, each
        #: with the serving-level callback that consumes its result.
        self._watch: List[Tuple[CommandFuture, Callable[[CommandFuture],
                                                        None]]] = []

    # ------------------------------------------------------------------
    # session table
    # ------------------------------------------------------------------
    def open_session(self) -> KvSession:
        sid = self._next_session
        self._next_session += 1
        session = KvSession(self, sid)
        self._sessions[sid] = session
        return session

    @property
    def session_count(self) -> int:
        return len(self._sessions)

    @property
    def cache_stats(self) -> CacheStats:
        return self.cache.stats if self.cache is not None else CacheStats()

    # ------------------------------------------------------------------
    # the three verbs
    # ------------------------------------------------------------------
    @staticmethod
    def _check_key(key: bytes) -> None:
        if not key:
            raise ServiceError("empty key")
        if len(key) > MAX_INLINE_KEY:
            raise ServiceError(
                f"key of {len(key)} B exceeds the {MAX_INLINE_KEY} B "
                f"in-command key field")

    def _put(self, key: bytes, value: bytes, sid: int) -> KvFuture:
        self._check_key(key)
        self.stats.puts += 1
        future = KvFuture("put", key, sid, self.clock.now)
        # Invalidate *before* the write is even submitted: from this
        # moment until commit re-invalidates, no read-through may
        # install a pre-write value (the cache's fill fence).
        if self.cache is not None:
            self.cache.invalidate(key)
        if self.batch_window_ns <= 0:
            return self._put_per_op(key, value, future)
        record = self._open
        if record is None:
            record = self._open = _BatchRecord(
                deadline_ns=self.clock.now + self.batch_window_ns)
        record.pairs.append((key, value))
        record.futures.append(future)
        self._pending[key] = record
        if len(record.pairs) >= self.batch_max_pairs:
            self.stats.flush_size += 1
            self._flush_open()
        return future

    def _put_per_op(self, key: bytes, value: bytes,
                    future: KvFuture) -> KvFuture:
        payload = encode_store_payload(key, value)
        ef = self.engine.submit(payload, method=self.method,
                                opcode=KvOpcode.STORE, nsid=self.nsid,
                                stream=future.session_id)

        def on_done(ef: CommandFuture) -> None:
            if self.cache is not None:
                self.cache.invalidate(key)
            if ef.ok:
                future._resolve(OK, self.clock.now, ef.status,
                                served_from=FROM_DEVICE)
            else:
                future._resolve(FAILED, self.clock.now, ef.status)

        self._watch.append((ef, on_done))
        return future

    def _get(self, key: bytes, sid: int) -> KvFuture:
        self._check_key(key)
        self.stats.gets += 1
        future = KvFuture("get", key, sid, self.clock.now)
        record = self._pending.get(key)
        if record is not None:
            # Read barrier: the key has an unacknowledged write.  Close
            # the window now (latency over batching for dependent reads)
            # and run the read after the group commits — read-your-writes
            # by construction.
            self.stats.deferred_ops += 1
            record.followers.append(lambda: self._get_through(key, future))
            if record is self._open:
                self.stats.flush_barrier += 1
                self._flush_open()
            return future
        self._get_through(key, future)
        return future

    def _get_through(self, key: bytes, future: KvFuture) -> None:
        """Cache lookup, then device read-through on a miss."""
        if self.cache is not None:
            value = self.cache.lookup(key)
            if value is not None:
                hook = self.on_cache_hit
                if hook is not None:
                    hook(key, value)
                future._resolve(OK, self.clock.now, None, value, FROM_CACHE)
                return
            token = self.cache.begin_fill(key)
        else:
            token = None
        mptr, cdw10, cdw11, cdw14 = key_field_words(key)
        ef = self.engine.submit_read(
            self.max_value_bytes, KvOpcode.RETRIEVE, cdw10=cdw10,
            cdw11=cdw11, mptr=mptr, cdw14=cdw14, nsid=self.nsid,
            stream=future.session_id)

        def on_done(ef: CommandFuture) -> None:
            if ef.status == StatusCode.KV_KEY_NOT_FOUND:
                future._resolve(NOT_FOUND, self.clock.now, ef.status)
                return
            if not ef.ok:
                future._resolve(FAILED, self.clock.now, ef.status)
                return
            value = ef.data if ef.data is not None else b""
            if self.cache is not None and token is not None:
                self.cache.commit_fill(token, value)
            future._resolve(OK, self.clock.now, ef.status, value,
                            FROM_DEVICE)

        self._watch.append((ef, on_done))

    def _delete(self, key: bytes, sid: int) -> KvFuture:
        self._check_key(key)
        self.stats.deletes += 1
        future = KvFuture("delete", key, sid, self.clock.now)
        if self.cache is not None:
            self.cache.invalidate(key)
        record = self._pending.get(key)
        if record is not None:
            # Same barrier as reads: the delete must land after the
            # pending write it shadows, or the device would resurrect
            # the batched value.
            self.stats.deferred_ops += 1
            record.followers.append(
                lambda: self._delete_through(key, future))
            if record is self._open:
                self.stats.flush_barrier += 1
                self._flush_open()
            return future
        self._delete_through(key, future)
        return future

    def _delete_through(self, key: bytes, future: KvFuture) -> None:
        mptr, cdw10, cdw11, cdw14 = key_field_words(key)
        ef = self.engine.submit_read(
            0, KvOpcode.DELETE, cdw10=cdw10, cdw11=cdw11, mptr=mptr,
            cdw14=cdw14, nsid=self.nsid, stream=future.session_id)

        def on_done(ef: CommandFuture) -> None:
            if self.cache is not None:
                self.cache.invalidate(key)
            if ef.status == StatusCode.KV_KEY_NOT_FOUND:
                future._resolve(NOT_FOUND, self.clock.now, ef.status)
            elif ef.ok:
                future._resolve(OK, self.clock.now, ef.status,
                                served_from=FROM_DEVICE)
            else:
                future._resolve(FAILED, self.clock.now, ef.status)

        self._watch.append((ef, on_done))

    # ------------------------------------------------------------------
    # group commit
    # ------------------------------------------------------------------
    def _flush_open(self) -> None:
        """Submit the open batch as one KV_BATCH_STORE command."""
        record = self._open
        if record is None or not record.pairs:
            return
        self._open = None
        payload = encode_batch_payload(record.pairs)
        self.stats.batches += 1
        self.stats.batched_pairs += len(record.pairs)
        ef = self.engine.submit(payload, method=self.method,
                                opcode=VendorOpcode.KV_BATCH_STORE,
                                nsid=self.nsid,
                                stream=record.futures[0].session_id)

        def on_done(ef: CommandFuture) -> None:
            record.committed = True
            # Re-invalidate at commit: a read-through that raced the
            # batch (began before submit, filled after) must not leave
            # a pre-commit value behind.
            if self.cache is not None:
                for key, _value in record.pairs:
                    self.cache.invalidate(key)
            for key, _value in record.pairs:
                if self._pending.get(key) is record:
                    del self._pending[key]
            now = self.clock.now
            state = OK if ef.ok else FAILED
            for future in record.futures:
                future._resolve(state, now, ef.status,
                                served_from=FROM_DEVICE)
            # Barrier'd reads/deletes run strictly after the commit.
            for follower in record.followers:
                follower()

        self._watch.append((ef, on_done))

    def flush(self) -> None:
        """Close the batching window now (explicit group commit)."""
        if self._open is not None and self._open.pairs:
            self.stats.flush_explicit += 1
        self._flush_open()

    # ------------------------------------------------------------------
    # progress
    # ------------------------------------------------------------------
    def poll(self) -> int:
        """One serving round: deadline flush → engine poll → callbacks.

        Returns the number of *serving* futures resolved.  When the
        engine pipeline is idle but a batch window is still open, the
        clock sleeps forward to the window deadline and commits — the
        serving analogue of the reactor's backoff sleep, without which
        every session blocked on a PUT would spin on a frozen clock.
        """
        record = self._open
        if record is not None and self.clock.now >= record.deadline_ns:
            self.stats.flush_deadline += 1
            self._flush_open()
        self.engine.poll()
        resolved = self._run_callbacks()
        if (resolved == 0 and self._open is not None
                and not self.engine.table and not self.engine.parked):
            record = self._open
            self.clock.advance_to(record.deadline_ns)
            self.stats.flush_deadline += 1
            self._flush_open()
            self.engine.poll()
            resolved = self._run_callbacks()
        return resolved

    def _run_callbacks(self) -> int:
        """Fire callbacks of resolved engine futures, in issue order."""
        fired = 0
        while True:
            remaining: List[Tuple[CommandFuture,
                                  Callable[[CommandFuture], None]]] = []
            ready: List[Tuple[CommandFuture,
                              Callable[[CommandFuture], None]]] = []
            for ef, callback in self._watch:
                (ready if ef.done else remaining).append((ef, callback))
            if not ready:
                return fired
            self._watch = remaining
            for ef, callback in ready:
                callback(ef)
                fired += 1
            # Callbacks may have registered new watchers on futures the
            # engine already resolved (group-commit followers resolved
            # from cache); loop until quiescent.

    def drain(self) -> int:
        """Commit the open batch and run every outstanding op down.

        Returns the number of serving futures resolved while draining.
        """
        self.flush()
        resolved = self._run_callbacks()
        stall = 0
        while self._watch or self._open is not None:
            before = (len(self._watch), self.clock.now)
            resolved += self.poll()
            after = (len(self._watch), self.clock.now)
            stall = stall + 1 if after == before else 0
            if stall > 100:
                raise ServiceError(
                    f"drain stalled with {len(self._watch)} watched "
                    f"futures outstanding")
        return resolved

    # ------------------------------------------------------------------
    # ordered range scan
    # ------------------------------------------------------------------
    def scan(self, start: bytes, end: Optional[bytes] = None,
             page_size: int = 64) -> Iterator[Tuple[bytes, bytes]]:
        """Ordered iteration over ``[start, end)`` in pages.

        Each page is one LIST command — a consistent snapshot of the
        device's LSM iterator at the moment it executes — and every
        value is read *through* the serving read path (cache lookup,
        coherent read-through), never around it.  The scan drains the
        service first so it observes all previously issued writes
        (scan-after-write consistency); keys deleted between the page
        snapshot and the value read are skipped.
        """
        self._check_key(start)
        if page_size <= 0:
            raise ServiceError(
                f"page_size must be positive, got {page_size}")
        self.stats.scans += 1
        self.drain()
        return self._scan_pages(start, end, page_size)

    def _scan_pages(self, start: bytes, end: Optional[bytes],
                    page_size: int) -> Iterator[Tuple[bytes, bytes]]:
        # u32 count + worst-case (u16 len | 16 B key) records per page.
        page_bytes = 4 + page_size * (2 + MAX_INLINE_KEY)
        cursor = start
        first_page = True
        while True:
            mptr, cdw10, cdw11, cdw14 = key_field_words(cursor)
            ef = self.engine.submit_read(
                page_bytes, KvOpcode.LIST, cdw10=cdw10, cdw11=cdw11,
                mptr=mptr, cdw14=cdw14, cdw15=page_size, nsid=self.nsid)
            self._await(ef, "the device")
            if not ef.ok:
                raise ServiceError(
                    f"LIST failed with status {ef.status:#x}"
                    if ef.status is not None else "LIST timed out")
            keys = decode_key_list(ef.data if ef.data is not None else b"")
            progressed = False
            for key in keys:
                # LIST returns keys ≥ cursor; the page cursor is the
                # last key already yielded (16 B keys leave no room for
                # a "+1" successor cursor), so skip it on re-fetch.
                if not first_page and key <= cursor:
                    continue
                if end is not None and key >= end:
                    return
                progressed = True
                cursor = key
                future = KvFuture("get", key, -1, self.clock.now)
                self._get_through(key, future)
                self._await(future, "a value read")
                if future.not_found:
                    continue  # deleted after the page snapshot
                yield key, future.result()
            if not progressed or len(keys) < page_size:
                return
            first_page = False

    def _await(self, future: Union[CommandFuture, KvFuture],
               what: str) -> None:
        """Poll the engine (running service callbacks) until *future*
        resolves; a frozen clock for 100 rounds is a stalled scan."""
        stall = 0
        while not future.done:
            before = self.clock.now
            self.engine.poll()
            self._run_callbacks()
            stall = stall + 1 if self.clock.now <= before else 0
            if stall > 100:
                raise ServiceError(f"scan stalled awaiting {what}")
