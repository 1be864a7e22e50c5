"""SQL predicate pushdown: device personality + host client (Figure 7).

The host encodes a computation task — either the full SQL string or just
the ``table;predicate`` segment — as the payload of a vendor NVMe command
and ships it to the SSD by any transfer method.  The device parses the
message against its stored schemas, runs (or queues) the filter, and the
host fetches matching rows with a result command.

This is the paper's CSD scenario: the task messages are tens to hundreds
of bytes (Figure 4), exactly the regime where PRP's page-granular DMA
wastes two orders of magnitude of PCIe traffic.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

from repro.datapath import names as dp_names
from repro.csd.filter import FilterExecutor, FilterResult
from repro.csd.schema import TableSchema
from repro.csd.sql import SqlError, parse_predicate, parse_query
from repro.csd.table import TableError, TableStore
from repro.host.driver import NvmeDriver
from repro.nvme.constants import StatusCode, VendorOpcode
from repro.nvme.passthrough import PassthruRequest
from repro.ssd.controller import CommandContext, CommandResult
from repro.ssd.device import OpenSsd
from repro.transfer.base import TransferMethod, TransferStats

_NAME_HEADER = struct.Struct("<H")


@dataclass(frozen=True)
class PushdownTask:
    """A parsed task message."""

    table: str
    predicate: object  # Expr or None
    raw_len: int


def parse_task_message(message: str) -> PushdownTask:
    """Accept both Figure-7 forms: full SQL, or ``table;predicate``."""
    stripped = message.strip()
    if stripped.lower().startswith("select"):
        query = parse_query(stripped)
        return PushdownTask(query.table, query.where,
                            len(message.encode("utf-8")))
    table, sep, predicate = stripped.partition(";")
    table = table.strip()
    if not table:
        raise SqlError("task message has no table identifier")
    expr = parse_predicate(predicate) if sep and predicate.strip() else None
    return PushdownTask(table, expr, len(message.encode("utf-8")))


class CsdPersonality:
    """Device firmware: table catalog, task queue, filter executor."""

    def __init__(self, ssd: OpenSsd, execute_inline: bool = True,
                 workspace_bytes: int = 8 << 20) -> None:
        self.ssd = ssd
        base = ssd.ftl.logical_capacity_pages // 2
        self.store = TableStore(ssd.ftl, lpn_base=base,
                                nand_enabled=ssd.nand_enabled)
        self.executor = FilterExecutor(ssd.clock)
        self.execute_inline = execute_inline
        #: The "workspace for filter processing" — results wait here until
        #: the host fetches them.
        self.workspace = ssd.dram.carve("csd.workspace", workspace_bytes)
        self._results: Deque[FilterResult] = deque()
        self._pending: Deque[PushdownTask] = deque()
        ctl = ssd.controller
        ctl.register_handler(VendorOpcode.CSD_PUSHDOWN, self._on_pushdown)
        ctl.register_handler(VendorOpcode.CSD_CREATE_TABLE, self._on_create)
        ctl.register_handler(VendorOpcode.CSD_LOAD_ROWS, self._on_load)
        ctl.register_handler(VendorOpcode.CSD_FETCH_RESULT, self._on_fetch,
                             data_phase=False)
        self.tasks_received = 0

    # ------------------------------------------------------------------
    def _on_pushdown(self, ctx: CommandContext) -> CommandResult:
        if ctx.data is None:
            return CommandResult(StatusCode.INVALID_FIELD)
        self.ssd.clock.advance(self.ssd.config.timing.csd_task_setup_ns)
        try:
            task = parse_task_message(ctx.data.decode("utf-8"))
            table = self.store.get(task.table)
            self.executor.validate(table, task.predicate)
        except (SqlError, TableError, UnicodeDecodeError):
            return CommandResult(StatusCode.INVALID_FIELD)
        self.tasks_received += 1
        if self.execute_inline:
            result = self.executor.execute(table, task.predicate)
            self._results.append(result)
            return CommandResult(result=len(result.rows))
        self._pending.append(task)
        return CommandResult(result=0)

    def _on_create(self, ctx: CommandContext) -> CommandResult:
        if ctx.data is None:
            return CommandResult(StatusCode.INVALID_FIELD)
        try:
            schema = TableSchema.unpack(ctx.data)
            self.store.create(schema)
        except (ValueError, TableError):
            return CommandResult(StatusCode.INVALID_FIELD)
        return CommandResult()

    def _on_load(self, ctx: CommandContext) -> CommandResult:
        if ctx.data is None or len(ctx.data) < _NAME_HEADER.size:
            return CommandResult(StatusCode.INVALID_FIELD)
        (name_len,) = _NAME_HEADER.unpack_from(ctx.data)
        name = ctx.data[_NAME_HEADER.size:_NAME_HEADER.size + name_len]
        body = ctx.data[_NAME_HEADER.size + name_len:]
        try:
            table = self.store.get(name.decode("utf-8"))
            rows = table.schema.unpack_rows(body)
            table.append_rows(rows)
        except (TableError, ValueError, struct.error, UnicodeDecodeError):
            return CommandResult(StatusCode.INVALID_FIELD)
        return CommandResult(result=len(rows))

    def _on_fetch(self, ctx: CommandContext) -> CommandResult:
        if not self._results:
            return CommandResult(StatusCode.KV_KEY_NOT_FOUND)
        result = self._results.popleft()
        packed = result.pack()
        limit = ctx.cmd.cdw13 or len(packed)
        if len(packed) > self.workspace.size:
            return CommandResult(StatusCode.INTERNAL_ERROR)
        self.workspace.write(0, packed)
        return CommandResult(result=len(packed), read_data=packed[:limit])

    # ------------------------------------------------------------------
    def run_pending(self) -> int:
        """Execute queued tasks (transfer-rate benchmarks defer this)."""
        ran = 0
        while self._pending:
            task = self._pending.popleft()
            table = self.store.get(task.table)
            self._results.append(self.executor.execute(table, task.predicate))
            ran += 1
        return ran

    @property
    def pending_tasks(self) -> int:
        return len(self._pending)

    @property
    def queued_results(self) -> int:
        return len(self._results)


class CsdClient:
    """Host library: table setup + pushdown over any transfer method."""

    #: Row-load batch size (bytes) for the bulk PRP path.
    LOAD_BATCH_BYTES = 32 * 1024

    def __init__(self, driver: NvmeDriver, method: TransferMethod,
                 qid: Optional[int] = None) -> None:
        self.driver = driver
        self.method = method
        self.qid = qid if qid is not None else driver.default_qid()

    # ------------------------------------------------------------------
    def create_table(self, schema: TableSchema) -> None:
        stats = self.method.write(schema.pack(),
                                  opcode=VendorOpcode.CSD_CREATE_TABLE,
                                  qid=self.qid)
        if not stats.ok:
            raise TableError(
                f"create_table failed with status {stats.status:#x}")

    def load_rows(self, schema: TableSchema,
                  rows: List[Tuple[object, ...]]) -> None:
        """Bulk-load rows over the stock PRP path (bulk data is exactly
        what PRP is good at — the paper's point is about *small* payloads)."""
        name = schema.name.encode("utf-8")
        header = _NAME_HEADER.pack(len(name)) + name
        batch = bytearray(header)
        for row in rows:
            packed = schema.pack_row(row)
            if len(batch) + len(packed) > self.LOAD_BATCH_BYTES and \
                    len(batch) > len(header):
                self._send_batch(bytes(batch))
                batch = bytearray(header)
            batch += packed
        if len(batch) > len(header):
            self._send_batch(bytes(batch))

    def _send_batch(self, payload: bytes) -> None:
        req = PassthruRequest(opcode=VendorOpcode.CSD_LOAD_ROWS, data=payload)
        result = self.driver.passthru(req, method=dp_names.PRP, qid=self.qid)
        if not result.ok:
            raise TableError(f"load_rows failed with status {result.status:#x}")

    # ------------------------------------------------------------------
    def pushdown(self, message: str) -> TransferStats:
        """Ship one task message; returns the transfer measurement."""
        stats = self.method.write(message.encode("utf-8"),
                                  opcode=VendorOpcode.CSD_PUSHDOWN,
                                  qid=self.qid)
        if not stats.ok:
            raise SqlError(f"pushdown failed with status {stats.status:#x}")
        return stats

    def fetch_results(self, schema: TableSchema,
                      max_len: int = 32 * 1024) -> List[Tuple[object, ...]]:
        """Retrieve the oldest completed filter result.

        One ``passthru`` read, so a lost doorbell or CQE is recovered
        like any write.  FETCH_RESULT pops its result on the device,
        though: a retry after a lost CQE returns the *next* queued
        result — the same at-least-once behaviour ``CSD_PUSHDOWN``
        has through ``passthru``.  The CQE result is the packed rows'
        byte length; a result larger than *max_len* raises
        :class:`SqlError` (the rows did not fit the buffer).
        """
        req = PassthruRequest(opcode=VendorOpcode.CSD_FETCH_RESULT,
                              read_len=max_len)
        res = self.driver.passthru(req, qid=self.qid)
        if res.status == StatusCode.KV_KEY_NOT_FOUND:
            raise SqlError("no filter results queued on the device")
        if not res.ok:
            raise SqlError(f"fetch_results failed with status {res.status:#x}")
        if res.result > max_len:
            raise SqlError(f"filter result of {res.result} B exceeds buffer "
                           f"of {max_len} B")
        return schema.unpack_rows(res.data or b"")
