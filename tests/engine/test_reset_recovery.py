"""An engine outlives a controller reset: the entries the reset dropped
time out and fail, instead of crashing the reactor's recovery scan."""

from repro.engine.table import TIMED_OUT
from repro.host.driver import RetryPolicy
from repro.nvme.registers import REG_CC
from repro.testbed import make_kv_testbed


def test_entries_dropped_by_a_reset_time_out():
    tb = make_kv_testbed()
    engine = tb.make_engine(queues=1)
    future = engine.submit(b"v" * 64)
    tb.ssd.bar.write32(REG_CC, 0)  # reset: the controller forgets its SQs
    engine.drain()
    attempts = RetryPolicy().max_attempts
    assert future.state == TIMED_OUT
    assert future.attempts == attempts
    assert engine.stats.timeouts == attempts
