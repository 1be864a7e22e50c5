"""In-device filter execution.

Runs a parsed predicate over an on-device table and materialises the
matching rows into a result workspace (the "workspace for filter
processing in CSDs" the paper names as a ByteExpress landing buffer,
§3.3.1).  Per-row evaluation time is charged to the device clock so
high-selectivity filters show their device-side cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.csd.schema import TableSchema
from repro.csd.sql import Expr, SqlError, evaluate, predicate_columns
from repro.csd.table import DeviceTable
from repro.sim.clock import SimClock

#: Device CPU cost to evaluate one predicate over one row.
ROW_EVAL_NS = 40.0


@dataclass
class FilterResult:
    """Outcome of one filter task."""

    table: str
    rows: List[Tuple[object, ...]]
    rows_scanned: int
    schema: TableSchema

    @property
    def selectivity(self) -> float:
        if self.rows_scanned == 0:
            return 0.0
        return len(self.rows) / self.rows_scanned

    def pack(self) -> bytes:
        """Wire form for returning results to the host."""
        out = bytearray()
        for row in self.rows:
            out += self.schema.pack_row(row)
        return bytes(out)


class FilterExecutor:
    """Evaluates predicates over device tables."""

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self.tasks_executed = 0
        self.rows_scanned = 0

    def validate(self, table: DeviceTable, predicate: Optional[Expr]) -> None:
        """Check every referenced column exists before running the scan."""
        if predicate is None:
            return
        for name in predicate_columns(predicate):
            if not table.schema.has_column(name):
                raise SqlError(
                    f"predicate references unknown column {name!r} "
                    f"of table {table.schema.name!r}")

    def execute(self, table: DeviceTable,
                predicate: Optional[Expr]) -> FilterResult:
        """Scan + filter; charges NAND reads and per-row CPU time."""
        self.validate(table, predicate)
        names = [c.name for c in table.schema.columns]
        matches: List[Tuple[object, ...]] = []
        scanned = 0
        for row in table.scan_rows():
            scanned += 1
            if predicate is None or evaluate(predicate, dict(zip(names, row))):
                matches.append(row)
        self.clock.advance(ROW_EVAL_NS * scanned)
        self.tasks_executed += 1
        self.rows_scanned += scanned
        return FilterResult(table=table.schema.name, rows=matches,
                            rows_scanned=scanned, schema=table.schema)
