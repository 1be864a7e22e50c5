"""SimClock: monotonicity, spans, totals."""

import pytest

from repro.sim.clock import SimClock


def test_starts_at_zero():
    assert SimClock().now == 0.0


def test_advance_accumulates():
    clk = SimClock()
    clk.advance(10)
    clk.advance(5.5)
    assert clk.now == 15.5


def test_advance_rejects_negative():
    clk = SimClock()
    with pytest.raises(ValueError):
        clk.advance(-1)


def test_advance_to_moves_forward_only():
    clk = SimClock()
    clk.advance_to(100)
    assert clk.now == 100
    clk.advance_to(50)  # no-op
    assert clk.now == 100


def test_custom_start():
    assert SimClock(start_ns=42).now == 42


def test_span_records_duration():
    clk = SimClock()
    with clk.span("phase"):
        clk.advance(30)
    assert clk.span_totals() == {"phase": 30}


def test_nested_spans_attribute_correctly():
    clk = SimClock()
    with clk.span("outer"):
        clk.advance(10)
        with clk.span("inner"):
            clk.advance(5)
        clk.advance(2)
    totals = clk.span_totals()
    assert totals["inner"] == 5
    assert totals["outer"] == 17


def test_span_filter_and_all():
    clk = SimClock()
    with clk.span("a"):
        clk.advance(1)
    with clk.span("b"):
        clk.advance(2)
    assert list(clk.span_totals()) == ["a", "b"]
    assert clk.span_totals()["a"] == 1


def test_span_records_even_on_exception():
    clk = SimClock()
    with pytest.raises(RuntimeError):
        with clk.span("failing"):
            clk.advance(7)
            raise RuntimeError("boom")
    assert clk.span_totals()["failing"] == 7


def test_reset_spans():
    clk = SimClock()
    with clk.span("x"):
        clk.advance(1)
    clk.reset_spans()
    assert clk.span_totals() == {}
    assert clk.now == 1  # time is not reset


def test_span_totals_add_in_closing_order():
    """Totals are summed in place as spans close, in the same order a
    list of closed spans would be summed: the float result is exact."""
    clk = SimClock()
    durations = [0.1, 0.2, 0.3, 1e-9, 7.0]
    expected = 0.0
    for d in durations:
        start = clk.now
        clk.advance(d)
        clk.span_end("phase", start)
        expected += clk.now - start
    assert clk.span_totals() == {"phase": expected}
    with clk.span("phase"):
        clk.advance(1.5)
    assert clk.span_totals()["phase"] == expected + 1.5
