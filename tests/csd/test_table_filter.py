"""Device table store and filter executor."""

import pytest

from repro.csd.filter import ROW_EVAL_NS, FilterExecutor
from repro.csd.schema import Column, ColumnType, TableSchema
from repro.csd.sql import SqlError, parse_predicate
from repro.csd.table import TableError, TableStore
from repro.sim.clock import SimClock
from repro.sim.config import TimingModel
from repro.ssd.ftl import PageMappingFtl
from repro.ssd.nand import NandArray, NandGeometry

I64, F64 = ColumnType.INT64, ColumnType.FLOAT64


@pytest.fixture
def store():
    nand = NandArray(SimClock(), TimingModel(),
                     NandGeometry(channels=2, ways=2, blocks_per_die=64,
                                  pages_per_block=64, page_bytes=2048))
    ftl = PageMappingFtl(nand)
    return TableStore(ftl, lpn_base=0, nand_enabled=True)


@pytest.fixture
def schema():
    return TableSchema("nums", (Column("i", I64), Column("x", F64)))


def test_create_and_lookup(store, schema):
    store.create(schema)
    assert store.exists("nums")
    assert store.get("nums").schema == schema
    assert store.names == ["nums"]


def test_duplicate_create_rejected(store, schema):
    store.create(schema)
    with pytest.raises(TableError):
        store.create(schema)


def test_missing_table(store):
    with pytest.raises(TableError):
        store.get("ghost")


def test_rows_roundtrip(store, schema):
    table = store.create(schema)
    rows = [(i, float(i) / 2) for i in range(100)]
    table.append_rows(rows)
    assert table.row_count == 100
    assert table.scan_rows() == rows


def test_large_table_persists_pages(store, schema):
    table = store.create(schema)
    table.append_rows([(i, 1.0) for i in range(1000)])
    assert len(table.lpns) > 0  # full pages reached NAND
    assert table.scan_rows()[999] == (999, 1.0)


def test_incremental_appends(store, schema):
    table = store.create(schema)
    table.append_rows([(1, 1.0)])
    table.append_rows([(2, 2.0)])
    assert table.scan_rows() == [(1, 1.0), (2, 2.0)]


class TestFilterExecutor:
    def _rig(self, store, schema, n=200):
        table = store.create(schema)
        table.append_rows([(i, float(i)) for i in range(n)])
        return table, FilterExecutor(SimClock())

    def test_filters_correctly(self, store, schema):
        table, ex = self._rig(store, schema)
        result = ex.execute(table, parse_predicate("i < 10"))
        assert len(result.rows) == 10
        assert result.rows_scanned == 200
        assert result.selectivity == pytest.approx(0.05)

    def test_none_predicate_selects_all(self, store, schema):
        table, ex = self._rig(store, schema)
        assert len(ex.execute(table, None).rows) == 200

    def test_unknown_column_rejected_before_scan(self, store, schema):
        table, ex = self._rig(store, schema)
        with pytest.raises(SqlError):
            ex.execute(table, parse_predicate("bogus > 1"))
        assert ex.rows_scanned == 0

    def test_row_eval_time_charged(self, store, schema):
        table, ex = self._rig(store, schema)
        t0 = ex.clock.now
        ex.execute(table, parse_predicate("i = 1"))
        assert ex.clock.now - t0 >= 200 * ROW_EVAL_NS

    def test_result_pack_roundtrip(self, store, schema):
        table, ex = self._rig(store, schema)
        result = ex.execute(table, parse_predicate("i < 3"))
        assert schema.unpack_rows(result.pack()) == result.rows
