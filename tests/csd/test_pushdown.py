"""Pushdown personality + client end-to-end."""

import pytest

from repro.csd.pushdown import parse_task_message
from repro.csd.queries import CORPUS, VPIC
from repro.csd.sql import SqlError, evaluate, parse_query
from repro.csd.pushdown import CsdClient
from repro.testbed import make_csd_testbed


class TestTaskMessageParsing:
    def test_full_sql_form(self):
        task = parse_task_message("SELECT * FROM t WHERE a > 1")
        assert task.table == "t"
        assert task.predicate is not None

    def test_segment_form(self):
        task = parse_task_message("particles;energy > 1.2")
        assert task.table == "particles"
        assert task.predicate is not None

    def test_table_only_segment(self):
        task = parse_task_message("particles")
        assert task.table == "particles"
        assert task.predicate is None

    def test_empty_rejected(self):
        with pytest.raises(SqlError):
            parse_task_message(";a > 1")


@pytest.fixture
def rig(csd_tb):
    client = CsdClient(csd_tb.driver, csd_tb.method("byteexpress"))
    return csd_tb, client


def _load(client, query, n=150, seed=2):
    client.create_table(query.schema)
    rows = query.make_rows(n, seed)
    client.load_rows(query.schema, rows)
    return rows


def test_full_pipeline_matches_reference(rig):
    tb, client = rig
    rows = _load(client, VPIC)
    client.pushdown(VPIC.full_sql)
    got = client.fetch_results(VPIC.schema, max_len=64 * 1024)
    parsed = parse_query(VPIC.full_sql)
    names = [c.name for c in VPIC.schema.columns]
    expected = [r for r in rows if evaluate(parsed.where, dict(zip(names, r)))]
    assert len(got) == len(expected)


def test_segment_and_full_give_same_result(rig):
    tb, client = rig
    _load(client, VPIC)
    client.pushdown(VPIC.full_sql)
    full = client.fetch_results(VPIC.schema, max_len=64 * 1024)
    client.pushdown(VPIC.segment)
    seg = client.fetch_results(VPIC.schema, max_len=64 * 1024)
    assert full == seg


def test_result_larger_than_the_buffer_is_an_error(rig):
    """The FETCH_RESULT CQE reports the packed rows' byte length, so a
    result that outgrows the host buffer is refused, not cut mid-row."""
    _, client = rig
    _load(client, VPIC)
    client.pushdown(VPIC.full_sql)
    with pytest.raises(SqlError, match="exceeds buffer"):
        client.fetch_results(VPIC.schema, max_len=100)


def test_unknown_table_rejected(rig):
    _, client = rig
    with pytest.raises(SqlError):
        client.pushdown("ghost_table;a > 1")


def test_unknown_column_rejected(rig):
    _, client = rig
    _load(client, VPIC)
    with pytest.raises(SqlError):
        client.pushdown("particles;bogus > 1")


def test_malformed_sql_rejected(rig):
    _, client = rig
    _load(client, VPIC)
    with pytest.raises(SqlError):
        client.pushdown("particles;energy >")


def test_fetch_without_results_rejected(rig):
    _, client = rig
    with pytest.raises(SqlError):
        client.fetch_results(VPIC.schema)


def test_deferred_execution_mode():
    tb = make_csd_testbed(execute_inline=False)
    client = CsdClient(tb.driver, tb.method("byteexpress"))
    _load(client, VPIC)
    for _ in range(5):
        client.pushdown(VPIC.segment)
    personality = tb.personality
    assert personality.pending_tasks == 5
    assert personality.queued_results == 0
    assert personality.run_pending() == 5
    assert personality.queued_results == 5


def test_all_methods_deliver_tasks(csd_tb):
    client0 = CsdClient(csd_tb.driver, csd_tb.method("prp"))
    _load(client0, VPIC)
    for method in ("prp", "sgl", "byteexpress", "bandslim", "hybrid"):
        client = CsdClient(csd_tb.driver, csd_tb.method(method))
        stats = client.pushdown(VPIC.segment)
        assert stats.ok
        got = client.fetch_results(VPIC.schema, max_len=64 * 1024)
        assert len(got) > 0


@pytest.mark.parametrize("query", CORPUS, ids=lambda q: q.name)
def test_whole_corpus_end_to_end(csd_tb, query):
    client = CsdClient(csd_tb.driver, csd_tb.method("byteexpress"))
    rows = _load(client, query, n=100, seed=7)
    client.pushdown(query.full_sql)
    got = client.fetch_results(query.schema, max_len=48 * 1024)
    names = [c.name for c in query.schema.columns]
    parsed = parse_query(query.full_sql)
    expected = [r for r in rows
                if parsed.where is None
                or evaluate(parsed.where, dict(zip(names, r)))]
    assert len(got) == len(expected)
