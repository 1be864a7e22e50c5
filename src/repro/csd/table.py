"""On-device table store.

Tables live inside the SSD (the whole point of pushdown: the data is
already there).  Rows are appended in packed wire format into NAND pages
through the FTL, with a DRAM-pinned row directory for scan decoding — the
same layering as the KV value log.  A full scan therefore charges NAND
read time, which is what makes in-device filtering observable in the
simulation's clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.csd.schema import TableSchema
from repro.ssd.ftl import PageMappingFtl


class TableError(ValueError):
    """Unknown table, schema mismatch, capacity issues."""


@dataclass
class DeviceTable:
    """One table: schema + packed rows persisted via the FTL."""

    schema: TableSchema
    ftl: PageMappingFtl
    lpn_base: int
    nand_enabled: bool = True
    #: Logical pages holding row data, in append order.
    lpns: List[int] = field(default_factory=list)
    #: In-DRAM mirror of the packed bytes (row directory + fast decode).
    _buffer: bytearray = field(default_factory=bytearray)
    row_count: int = 0

    def append_rows(self, rows: List[Tuple[object, ...]]) -> None:
        """Append rows, persisting full pages to NAND as they fill."""
        page_bytes = self.ftl.nand.geometry.page_bytes
        for row in rows:
            self._buffer += self.schema.pack_row(row)
            self.row_count += 1
        if self.nand_enabled:
            full_pages = len(self._buffer) // page_bytes
            already = len(self.lpns)
            for i in range(already, full_pages):
                lpn = self.lpn_base + i
                self.ftl.write(lpn,
                               bytes(self._buffer[i * page_bytes:
                                                  (i + 1) * page_bytes]))
                self.lpns.append(lpn)

    def scan_rows(self) -> List[Tuple[object, ...]]:
        """Materialise all rows (NAND reads charged for persisted pages)."""
        if self.nand_enabled:
            for lpn in self.lpns:
                self.ftl.read(lpn)  # charge the media time
        return self.schema.unpack_rows(bytes(self._buffer))


class TableStore:
    """The device's catalog of tables."""

    #: Each table gets a disjoint logical-page window of this many pages.
    PAGES_PER_TABLE = 4096

    def __init__(self, ftl: PageMappingFtl, lpn_base: int,
                 nand_enabled: bool = True) -> None:
        self.ftl = ftl
        self.lpn_base = lpn_base
        self.nand_enabled = nand_enabled
        self._tables: Dict[str, DeviceTable] = {}

    def create(self, schema: TableSchema) -> DeviceTable:
        if schema.name in self._tables:
            raise TableError(f"table {schema.name!r} already exists")
        base = self.lpn_base + len(self._tables) * self.PAGES_PER_TABLE
        table = DeviceTable(schema=schema, ftl=self.ftl, lpn_base=base,
                            nand_enabled=self.nand_enabled)
        self._tables[schema.name] = table
        return table

    def get(self, name: str) -> DeviceTable:
        table = self._tables.get(name)
        if table is None:
            raise TableError(f"no such table: {name!r}")
        return table

    def exists(self, name: str) -> bool:
        return name in self._tables

    @property
    def names(self) -> List[str]:
        return sorted(self._tables)
