"""NAND array: flash discipline, timing, pipelining, failure injection."""

import pytest

from repro.sim.clock import SimClock
from repro.sim.config import TimingModel
from repro.ssd.nand import NandArray, NandError, NandGeometry, PhysicalPage

TIMING = TimingModel()


@pytest.fixture
def nand():
    return NandArray(SimClock(), TIMING,
                     NandGeometry(channels=2, ways=2, blocks_per_die=4,
                                  pages_per_block=4, page_bytes=1024))


def _page(ch=0, way=0, block=0, page=0):
    return PhysicalPage(ch, way, block, page)


def test_program_read_roundtrip(nand):
    nand.program(_page(), b"data")
    assert nand.read(_page()) == b"data"


def test_read_unwritten_raises(nand):
    with pytest.raises(NandError):
        nand.read(_page())


def test_oversized_program_rejected(nand):
    with pytest.raises(NandError):
        nand.program(_page(), b"x" * 2048)


def test_out_of_order_program_within_block_rejected(nand):
    with pytest.raises(NandError):
        nand.program(_page(page=1), b"x")  # page 0 not yet programmed


def test_in_order_program_ok(nand):
    for i in range(4):
        nand.program(_page(page=i), bytes([i]))
    assert nand.read(_page(page=3)) == b"\x03"


def test_coordinates_validated(nand):
    with pytest.raises(ValueError):
        nand.program(PhysicalPage(9, 0, 0, 0), b"x")
    with pytest.raises(ValueError):
        nand.program(PhysicalPage(0, 0, 99, 0), b"x")


def test_blocking_program_advances_clock(nand):
    nand.program(_page(), b"x", blocking=True)
    assert nand.clock.now == TIMING.nand_page_program_ns


def test_pipelined_program_does_not_block(nand):
    nand.program(_page(), b"x", blocking=False)
    assert nand.clock.now == 0
    assert nand.busy_until(0) == TIMING.nand_page_program_ns


def test_same_die_serialises(nand):
    nand.program(_page(page=0), b"a")
    nand.program(_page(page=1), b"b")
    assert nand.busy_until(0) == 2 * TIMING.nand_page_program_ns


def test_different_dies_parallel(nand):
    nand.program(_page(ch=0), b"a")
    nand.program(_page(ch=1), b"b")
    assert nand.busy_until(0) == TIMING.nand_page_program_ns
    die1 = nand.geometry.die_index(1, 0)
    assert nand.busy_until(die1) == TIMING.nand_page_program_ns


def test_drain_advances_to_max(nand):
    nand.program(_page(), b"a")
    nand.drain()
    assert nand.clock.now == TIMING.nand_page_program_ns


def test_erase_resets_write_point_and_data(nand):
    nand.program(_page(), b"a")
    nand.erase(0, 0)
    with pytest.raises(NandError):
        nand.read(_page())
    nand.program(_page(), b"b")  # page 0 programmable again
    assert nand.read(_page()) == b"b"


def test_overwrite_without_erase_rejected(nand):
    for i in range(4):
        nand.program(_page(page=i), b"x")
    with pytest.raises(NandError):
        nand.program(_page(page=0), b"y")


def test_failure_injection(nand):
    nand.inject_program_failures(die=0, count=1)
    with pytest.raises(NandError):
        nand.program(_page(), b"x")
    # Next program succeeds (page 0 still unprogrammed).
    nand.program(_page(), b"x")


def test_op_counters(nand):
    nand.program(_page(), b"a")
    nand.read(_page())
    nand.erase(0, 1)
    assert (nand.programs, nand.reads, nand.erases) == (1, 1, 1)


def test_read_blocks_by_default(nand):
    nand.program(_page(), b"a")
    nand.read(_page())
    assert nand.clock.now == (TIMING.nand_page_program_ns
                              + TIMING.nand_page_read_ns)


def test_deferred_reads_overlap_across_dies_and_queue_on_one(nand):
    """Host reads mark their dies busy without moving the clock: reads on
    two dies finish together, a second read on one die queues."""
    die1 = nand.geometry.die_index(1, 0)
    nand.program(_page(ch=0), b"a")
    nand.program(_page(ch=1), b"b")
    nand.drain()
    t0 = nand.clock.now
    nand.defer_reads()
    assert nand.read(_page(ch=0)) == b"a"
    assert nand.read(_page(ch=1)) == b"b"
    assert nand.end_deferred() == t0 + TIMING.nand_page_read_ns
    assert nand.busy_until(die1) == t0 + TIMING.nand_page_read_ns
    nand.defer_reads()
    nand.read(_page(ch=0))
    nand.read(_page(ch=0))
    assert nand.end_deferred() == t0 + 3 * TIMING.nand_page_read_ns
    assert nand.clock.now == t0
    assert nand.reads == 4


def test_deferred_read_returns_the_page_as_issued(nand):
    """An erase after issue cannot change the captured data."""
    nand.program(_page(), b"old")
    nand.defer_reads()
    data = nand.read(_page())
    nand.end_deferred()
    nand.erase(0, 0)
    nand.program(_page(), b"new")
    assert data == b"old"


def test_a_scope_without_nand_reads_is_ready_at_zero(nand):
    nand.defer_reads()
    assert nand.end_deferred() == 0.0
    nand.program(_page(), b"a")
    nand.read(_page())  # the scope is closed: this read blocks again
    assert nand.clock.now > 0


def test_deferred_read_queueing_is_split_by_what_it_waits_behind(nand):
    """A host read behind a program counts the program's remaining time
    as ``read_wait_program_ns``; one behind another read counts that
    read's time as ``read_wait_read_ns``; a blocking read counts none."""
    program_ns = TIMING.nand_page_program_ns
    read_ns = TIMING.nand_page_read_ns
    nand.program(_page(), b"a")
    nand.clock.advance(100.0)  # the program is under way
    nand.defer_reads()
    nand.read(_page())
    nand.read(_page())
    nand.end_deferred()
    assert nand.read_wait_program_ns == 2 * (program_ns - 100.0)
    assert nand.read_wait_read_ns == read_ns
    nand.drain()
    nand.read(_page())  # blocking: not a host read
    assert nand.read_wait_program_ns == 2 * (program_ns - 100.0)
    assert nand.read_wait_read_ns == read_ns


def test_a_read_between_programs_splits_its_wait(nand):
    """Read, program, then a host read on one die: the wait is the
    first read's time plus the whole program."""
    nand.program(_page(page=0), b"a")
    nand.drain()
    nand.defer_reads()
    nand.read(_page(page=0))
    nand.program(_page(page=1), b"b")
    nand.read(_page(page=0))
    nand.end_deferred()
    assert nand.read_wait_program_ns == TIMING.nand_page_program_ns
    assert nand.read_wait_read_ns == TIMING.nand_page_read_ns
    nand.scrub()
    assert nand._slow_ops[0] == []
