"""Load generator: stream multiplexing, arrival processes, determinism."""

import pytest

from repro.engine import LoadGenerator, StreamSpec
from repro.engine.loadgen import LoadGenError, _draw_sizes
from repro.metrics import LatencySummary
from repro.testbed import make_engine_testbed


def _gen(queues=2, qd=4, streams=None, seed=0x5EED, **gen_kw):
    tb = make_engine_testbed(queues=queues)
    engine = tb.make_engine(queues=queues, qd=qd)
    specs = streams or [StreamSpec(i, ops=40, concurrency=4)
                        for i in range(4)]
    return tb, LoadGenerator(engine, specs, seed=seed, **gen_kw)


def test_run_completes_every_stream():
    tb, gen = _gen()
    report = gen.run()
    assert report.total_ok == report.total_ops == 160
    assert len(report.streams) == 4
    for s in report.streams:
        assert s.ok == s.ops == 40
        assert s.latency.count == 40
        assert s.latency.p50 > 0
        assert s.latency.p999 >= s.latency.p99 >= s.latency.p50
    assert report.kiops > 0
    assert report.pcie_bytes > 0
    assert report.engine_stats["completed"] == 160


def test_report_latencies_summarise_the_ok_futures():
    """Each stream's latency, and the aggregate, is the summary of its
    OK futures' latencies."""
    streams = [StreamSpec(i, ops=30, concurrency=3, size="mixgraph")
               for i in range(3)]
    engine = make_engine_testbed(queues=2).make_engine(queues=2, qd=4)
    futures = {spec.stream_id: [] for spec in streams}
    submit = engine.submit

    def logged(payload, **kw):
        future = submit(payload, **kw)
        futures[kw["stream"]].append(future)
        return future

    engine.submit = logged
    report = LoadGenerator(engine, streams).run()
    ok = {sid: [f.latency_ns for f in fs if f.ok]
          for sid, fs in futures.items()}
    for s in report.streams:
        assert s.latency == LatencySummary.from_samples(ok[s.stream_id])
    assert report.latency == LatencySummary.from_samples(
        [lat for sid in sorted(ok) for lat in ok[sid]])


def test_same_seed_is_byte_identical():
    rep_a = _gen(seed=123)[1].run()
    rep_b = _gen(seed=123)[1].run()
    assert rep_a == rep_b  # frozen dataclasses: full deep comparison
    assert rep_a.table() == rep_b.table()


def test_different_seed_changes_randomised_runs():
    streams = [StreamSpec(i, ops=30, concurrency=2, size="mixgraph",
                          think_ns=500.0) for i in range(3)]
    rep_a = _gen(streams=streams, seed=1)[1].run()
    rep_b = _gen(streams=streams, seed=2)[1].run()
    assert rep_a != rep_b


def test_think_time_spaces_arrivals():
    """An open-ish stream (think >> service) must run far below the
    closed-loop rate, and the clock must advance through idle gaps."""
    closed = _gen(streams=[StreamSpec(0, ops=30, concurrency=1)])[1].run()
    thinking = _gen(streams=[StreamSpec(0, ops=30, concurrency=1,
                                        think_ns=200_000.0)])[1].run()
    assert thinking.elapsed_ns > 3 * closed.elapsed_ns
    assert thinking.total_ok == 30


def test_per_stream_method_override():
    streams = [StreamSpec(0, ops=20, concurrency=2),
               StreamSpec(1, ops=20, concurrency=2, method="prp")]
    tb, gen = _gen(streams=streams, method="byteexpress")
    report = gen.run()
    by_id = {s.stream_id: s for s in report.streams}
    assert by_id[0].method == "byteexpress"
    assert by_id[1].method == "prp"
    assert report.total_ok == 40


def test_mixgraph_sizes_are_seeded_and_bounded():
    spec = StreamSpec(7, ops=500, size="mixgraph", max_size=1024)
    a = _draw_sizes(spec, seed=9)
    b = _draw_sizes(spec, seed=9)
    assert (a == b).all()
    assert a.min() >= 1 and a.max() <= 1024
    assert len(set(a.tolist())) > 10  # actually a distribution
    other = _draw_sizes(StreamSpec(8, ops=500, size="mixgraph",
                                   max_size=1024), seed=9)
    assert (a != other).any()  # per-stream RNG streams differ


def test_uniform_and_fixed_sizes():
    u = _draw_sizes(StreamSpec(0, ops=200, size="uniform:10:20"), seed=1)
    assert u.min() >= 10 and u.max() <= 20
    f = _draw_sizes(StreamSpec(0, ops=5, size="fixed:100"), seed=1)
    assert (f == 100).all()


def test_writes_land_disjointly(payload_check_ops=16):
    """Concurrent streams write to disjoint offsets; spot-check a few."""
    tb, gen = _gen(streams=[StreamSpec(i, ops=payload_check_ops,
                                       concurrency=4, size="fixed:64")
                            for i in range(2)])
    report = gen.run()
    assert report.total_ok == 2 * payload_check_ops
    store = tb.personality
    seen = set()
    total = 0
    for off in range(0, 4096 * 2 * payload_check_ops, 4096):
        data = store.read_back(off, 64)
        if data != bytes(64):
            total += 1
            seen.add(data)
    assert total == 2 * payload_check_ops
    assert len(seen) > 1


@pytest.mark.parametrize("bad", [
    dict(stream_id=0, ops=0),
    dict(stream_id=0, ops=1, concurrency=0),
    dict(stream_id=0, ops=1, think_ns=-1.0),
])
def test_bad_stream_specs(bad):
    with pytest.raises(LoadGenError):
        StreamSpec(**bad)


def test_bad_size_spec_and_duplicate_ids():
    with pytest.raises(LoadGenError):
        _draw_sizes(StreamSpec(0, ops=1, size="zipf:2"), seed=0)
    tb = make_engine_testbed(queues=1)
    engine = tb.make_engine(queues=1)
    with pytest.raises(LoadGenError):
        LoadGenerator(engine, [StreamSpec(0, ops=1), StreamSpec(0, ops=1)])
    with pytest.raises(LoadGenError):
        LoadGenerator(engine, [])
