"""Device-side inline fetch: payload recovery, Table-1 fetch costs,
doorbell-bounds enforcement."""

import pytest

from repro.core.controller_ext import (
    DeviceSqState,
    InlineFetchError,
    fetch_inline_payload,
)
from repro.core.inline_command import inspect_command
from repro.datapath.codecs import INLINE_WRITE_CODEC
from repro.nvme.command import NvmeCommand
from repro.nvme.constants import SQE_SIZE
from repro.pcie.link import PCIeLink
from repro.pcie.traffic import CAT_INLINE_CHUNK, TrafficCounter
from repro.sim.clock import SimClock
from repro.sim.config import LinkConfig, SimConfig, TimingModel
from repro.testbed import make_block_testbed

TIMING = TimingModel()


def _host_sq(depth):
    """A driver's I/O queue 1 whose device side the test drives by hand
    (the controller never runs): the host half is the real codec."""
    tb = make_block_testbed(config=SimConfig(sq_depth=depth).nand_off(),
                            include_mmio=False)
    return tb.driver, tb.driver.queue(1).sq


def _encode(driver, sq, payload):
    """Insert one inline submission and publish the tail host-side."""
    INLINE_WRITE_CODEC.encode(driver, NvmeCommand(opcode=1), payload, 1,
                              ring=False)
    with sq.lock:
        sq.ring_doorbell()


def _submit(payload, depth=64):
    driver, sq = _host_sq(depth)
    mem = driver.memory
    clock = SimClock()
    link = PCIeLink(LinkConfig(), TIMING, TrafficCounter())
    _encode(driver, sq, payload)
    state = DeviceSqState(qid=1, base_addr=sq.base_addr, depth=sq.depth)
    raw = mem.read(state.slot_addr(0), SQE_SIZE)
    state.advance()  # past the command
    cmd = NvmeCommand.unpack(raw)
    return mem, sq, state, cmd, clock, link


def test_payload_recovered_exactly():
    payload = bytes(i % 251 for i in range(300))
    mem, sq, state, cmd, clock, link = _submit(payload)
    info = inspect_command(cmd)
    out = fetch_inline_payload(state, info, sq.shadow_tail, mem, link,
                               clock, TIMING)
    assert out == payload


def test_head_advances_past_chunks():
    payload = b"x" * 130  # 3 chunks
    mem, sq, state, cmd, clock, link = _submit(payload)
    fetch_inline_payload(state, inspect_command(cmd), sq.shadow_tail,
                         mem, link, clock, TIMING)
    assert state.head == 4


def test_fetch_cost_matches_table1():
    """Table 1 controller column: +400 ns per chunk over the 2400 base."""
    for size, chunks in ((64, 1), (128, 2), (256, 4)):
        payload = b"y" * size
        mem, sq, state, cmd, clock, link = _submit(payload)
        t0 = clock.now
        fetch_inline_payload(state, inspect_command(cmd), sq.shadow_tail,
                             mem, link, clock, TIMING)
        assert clock.now - t0 == pytest.approx(chunks * TIMING.chunk_fetch_ns)


def test_traffic_recorded_per_chunk():
    payload = b"z" * 200  # 4 chunks
    mem, sq, state, cmd, clock, link = _submit(payload)
    fetch_inline_payload(state, inspect_command(cmd), sq.shadow_tail,
                         mem, link, clock, TIMING)
    cat = link.counter.category(CAT_INLINE_CHUNK)
    assert cat.tlp_count == 8  # MRd + CplD per chunk
    assert cat.total_bytes == 4 * (32 + 96)


def test_chunks_beyond_doorbell_rejected():
    """A command advertising more chunks than are visible must fail."""
    payload = b"x" * 64
    mem, sq, state, cmd, clock, link = _submit(payload)
    cmd.cdw2 = 64 * 10  # lie: 10 chunks, only 1 inserted
    with pytest.raises(InlineFetchError):
        fetch_inline_payload(state, inspect_command(cmd), sq.shadow_tail,
                             mem, link, clock, TIMING)


def test_wraparound_chunk_fetch():
    """Chunks spanning the ring end are fetched correctly."""
    driver, sq = _host_sq(depth=8)
    mem = driver.memory
    clock = SimClock()
    link = PCIeLink(LinkConfig(), TIMING, TrafficCounter())
    # Advance the ring close to the end first.
    with sq.lock:
        for _ in range(6):
            sq.push_raw(b"\x00" * SQE_SIZE)
        sq.ring_doorbell()
    sq.note_sq_head(6)
    payload = bytes(range(128))
    _encode(driver, sq, payload)
    state = DeviceSqState(qid=1, base_addr=sq.base_addr, depth=8, head=6)
    cmd = NvmeCommand.unpack(mem.read(state.slot_addr(6), SQE_SIZE))
    state.advance()
    out = fetch_inline_payload(state, inspect_command(cmd), sq.shadow_tail,
                               mem, link, clock, TIMING)
    assert out == payload
    assert state.head == 1  # wrapped
