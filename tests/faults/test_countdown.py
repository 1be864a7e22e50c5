"""The injector's lookahead countdown against a one-at-a-time oracle.

:class:`FaultInjector` draws ahead on each kind's stream and lets the
hot paths consume whole runs of opportunities off :attr:`~FaultInjector.left`.
That is only legal if the result is exactly what deciding one
opportunity at a time gives.  The oracle below is that rule, written
out: it is kept here, not in ``src/``, so the production code has one
implementation.  Hypothesis drives both with random plans (rates
including 0 and 1, schedules, limits), bulk and single consumption,
``corrupt_length`` calls, ``reset()``, and armed crash cuts, and checks
every decision, the opportunity and injection counters, the ``fault.*``
events, every mask value and where each cut lands.
"""

from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.chunking import CHUNK_SIZE, join_chunks, split_payload
from repro.core.controller_ext import (
    ChunkCorruptionError,
    DeviceSqState,
    SqeWindow,
    fetch_inline_payload,
)
from repro.core.inline_command import inspect_command, make_inline_command
from repro.faults.plan import (
    ALL_KINDS,
    CORRUPT_CHUNK,
    CORRUPT_INLINE_LENGTH,
    CORRUPT_TLP,
    CUT_CQE,
    CUT_DOORBELL,
    CUT_KINDS,
    CUT_TLP,
    DROP_CQE,
    DROP_DOORBELL,
    MMIO_TLP,
    CrashCut,
    CrashPlan,
    FaultInjector,
    FaultPlan,
    fault_event,
)
from repro.host.memory import HostMemory
from repro.nvme.command import NvmeCommand
from repro.nvme.queues import SubmissionQueue
from repro.pcie.link import PCIeLink
from repro.pcie.tlp import device_dma_read
from repro.pcie.traffic import CAT_INLINE_CHUNK, EVT_TLP_REPLAY, TrafficCounter
from repro.sim.clock import SimClock
from repro.sim.config import LinkConfig, TimingModel
from repro.sim.rng import make_rng

_CUT_OF = {CORRUPT_TLP: CUT_TLP, MMIO_TLP: CUT_TLP,
           DROP_DOORBELL: CUT_DOORBELL, DROP_CQE: CUT_CQE}


class OracleInjector:
    """One opportunity at a time: the draw rule the countdown must match.

    Per opportunity: an armed crash cut on the kind's cut stream ticks
    first (and raises at the cut); past the kind's limit nothing fires
    and nothing is drawn; a scheduled index fires without a draw; any
    other index draws once when the kind has a rate.
    """

    def __init__(self, plan, counter=None):
        self.plan = plan if plan is not None and plan.active else None
        self.counter = counter
        self.crash_plan = None
        self.crash_opportunities = Counter()
        self.reset()

    def reset(self):
        self.opportunities = Counter()
        self.injected = Counter()
        self.crash_opportunities.clear()
        self._rngs = {}

    def _rng(self, kind):
        if kind not in self._rngs:
            self._rngs[kind] = make_rng(self.plan.seed, stream=f"fault.{kind}")
        return self._rngs[kind]

    def arm_crash(self, plan):
        self.crash_plan = plan
        self.crash_opportunities.clear()

    def disarm_crash(self):
        self.crash_plan = None

    def fire(self, kind):
        cut = _CUT_OF.get(kind)
        if self.crash_plan is not None and cut is not None:
            n = self.crash_opportunities[cut]
            self.crash_opportunities[cut] = n + 1
            if (cut == self.crash_plan.cut_kind
                    and n == self.crash_plan.cut_index):
                raise CrashCut(cut, n)
        if kind == MMIO_TLP:
            return False
        n = self.opportunities[kind]
        self.opportunities[kind] = n + 1
        if self.plan is None:
            return False
        limit = self.plan.limits.get(kind)
        if limit is not None and self.injected[kind] >= limit:
            return False
        hit = n in self.plan.schedule.get(kind, ())
        rate = self.plan.rates.get(kind, 0.0)
        if not hit and rate > 0.0:
            hit = float(self._rng(kind).random()) < rate
        if hit:
            self.injected[kind] += 1
            if self.counter is not None:
                self.counter.record_event(fault_event(kind))
        return hit

    def corrupt_length(self, value):
        from repro.core.inline_command import MAX_INLINE_BYTES
        mask = int(self._rng(CORRUPT_INLINE_LENGTH).integers(1, 1 << 20))
        return ((value ^ mask) | (MAX_INLINE_BYTES + 1)) & 0xFFFFFFFF


def consume(inj, kind, count):
    """What a hot path does with a run of *count* opportunities: subtract
    the clear stretch off the countdown, decide only at an event.
    Returns the offsets within the run that fired."""
    fired = []
    left = inj.left
    done = 0
    while done < count:
        step = min(left[kind], count - done)
        left[kind] -= step
        done += step
        if done < count:
            if inj.fire(kind):
                fired.append(done)
            done += 1
    return fired


def consume_oracle(oracle, kind, count):
    return [i for i in range(count) if oracle.fire(kind)]


def _snapshot(inj, counter):
    return ({k: inj.opportunities[k] for k in ALL_KINDS},
            {k: inj.injected[k] for k in ALL_KINDS},
            counter.events(),
            {k: inj.crash_opportunities[k] for k in CUT_KINDS})


_rate = st.one_of(st.sampled_from([0.0, 1.0, 0.001, 0.5]),
                  st.floats(min_value=0.0, max_value=1.0))


@st.composite
def plans(draw):
    kinds = draw(st.lists(st.sampled_from(ALL_KINDS), unique=True))
    rates = {k: draw(_rate) for k in kinds if draw(st.booleans())}
    schedule = {k: draw(st.lists(st.integers(0, 60), max_size=6))
                for k in kinds if draw(st.booleans())}
    limits = {k: draw(st.integers(0, 5)) for k in kinds
              if draw(st.booleans())}
    return FaultPlan(seed=draw(st.integers(0, 2 ** 32 - 1)), rates=rates,
                     schedule=schedule, limits=limits)


_stream = st.sampled_from(ALL_KINDS + (MMIO_TLP,))
_action = st.one_of(
    st.tuples(st.just("bulk"), _stream, st.integers(0, 120)),
    st.tuples(st.just("fire"), _stream),
    st.tuples(st.just("corrupt_length"), st.integers(0, 0xFFFF)),
    st.tuples(st.just("reset")),
    st.tuples(st.just("arm"), st.sampled_from(CUT_KINDS),
              st.integers(0, 150)),
    st.tuples(st.just("disarm")),
)


@given(plans(), st.lists(_action, max_size=40))
@settings(max_examples=300, deadline=None)
def test_countdown_matches_one_at_a_time_oracle(plan, actions):
    got_counter, want_counter = TrafficCounter(), TrafficCounter()
    got = FaultInjector(plan, counter=got_counter)
    want = OracleInjector(plan, counter=want_counter)
    for action in actions:
        outcome = []
        for inj, run, once in ((got, consume, got.fire),
                               (want, consume_oracle, want.fire)):
            try:
                if action[0] == "bulk":
                    result = run(inj, action[1], action[2])
                elif action[0] == "fire":
                    result = once(action[1])
                elif action[0] == "corrupt_length":
                    result = (inj.corrupt_length(action[1])
                              if inj.plan is not None else None)
                elif action[0] == "reset":
                    result = inj.reset()
                elif action[0] == "arm":
                    result = inj.arm_crash(CrashPlan(action[1], action[2]))
                else:
                    result = inj.disarm_crash()
            except CrashCut as cut:
                result = ("cut", cut.cut_kind, cut.cut_index)
            outcome.append(result)
        assert outcome[0] == outcome[1], action
        assert _snapshot(got, got_counter) == _snapshot(want, want_counter)


@given(plans(), st.lists(st.integers(0, 40), max_size=30))
@settings(max_examples=150, deadline=None)
def test_record_only_matches_per_copy_loop(plan, runs):
    """``record_only`` on a run of copies ≡ one record + one ``fire`` per
    copy, with a replayed duplicate for every copy that drew the fault."""
    timing, config = TimingModel(), LinkConfig()
    batch = device_dma_read(64, config)
    got_counter, want_counter = TrafficCounter(), TrafficCounter()
    link = PCIeLink(config, timing, got_counter,
                    injector=FaultInjector(plan, counter=got_counter))
    oracle = OracleInjector(plan, counter=want_counter)
    for count in runs:
        link.record_only("inline_chunk", batch, count)
        for _ in range(count):
            want_counter.record("inline_chunk", batch)
            if oracle.fire(CORRUPT_TLP):
                want_counter.record("inline_chunk", batch)
                want_counter.record_event(EVT_TLP_REPLAY)
    assert got_counter.breakdown() == want_counter.breakdown()
    assert got_counter.tlp_breakdown() == want_counter.tlp_breakdown()
    assert got_counter.events() == want_counter.events()
    assert got_counter.total_bytes == want_counter.total_bytes
    assert link.faults.opportunities[CORRUPT_TLP] == sum(runs)


@given(st.integers(0, 2 ** 32 - 1), st.floats(0.01, 0.99),
       st.lists(st.one_of(
           st.tuples(st.just("bulk"), st.integers(0, 30)),
           st.tuples(st.just("corrupt_length"), st.integers(0, 0xFFFF))),
           max_size=30))
@settings(max_examples=200, deadline=None)
def test_corrupt_length_masks_match_between_fires(seed, rate, actions):
    """``corrupt_length`` draws on the stream the lookahead draws ahead
    on; wherever it is called, the mask is the one-at-a-time value."""
    plan = FaultPlan(seed=seed, rates={CORRUPT_INLINE_LENGTH: rate})
    got, want = FaultInjector(plan), OracleInjector(plan)
    for action, arg in actions:
        if action == "bulk":
            assert (consume(got, CORRUPT_INLINE_LENGTH, arg)
                    == consume_oracle(want, CORRUPT_INLINE_LENGTH, arg))
        else:
            assert got.corrupt_length(arg) == want.corrupt_length(arg)
    assert got.opportunities == want.opportunities


_TIMING = TimingModel()
_LINK = LinkConfig()


def _inline_sq(payload, window_len, start=0):
    """Host memory holding one inline command + chunks from ring slot
    *start* on, the device's SQ state just past the command, and an
    optional burst window over the first *window_len* chunks.

    The entries are laid out the way ``InlineWriteCodec`` writes them
    (command with the inline length, then zero-padded 64 B chunks), on a
    bare 64-entry queue, so a sequence that starts near the end wraps
    the ring: the oracle runs thousands of these per test.
    """
    mem = HostMemory()
    sq = SubmissionQueue(qid=1, depth=64, memory=mem)
    sq.head = sq.tail = start  # an empty ring whose next slot is *start*
    cmd = make_inline_command(NvmeCommand(opcode=1), len(payload))
    with sq.lock:
        for entry in [cmd.pack()] + split_payload(payload):
            sq.push_raw(entry)
        sq.ring_doorbell()
    state = DeviceSqState(qid=1, base_addr=sq.base_addr, depth=sq.depth,
                          head=start)
    info = inspect_command(NvmeCommand.unpack(
        mem.read(state.slot_addr(start), CHUNK_SIZE)))
    state.advance()
    window = None
    if window_len:
        window = SqeWindow(start=state.head, depth=state.depth, entries=[
            mem.read(state.slot_addr(state.head + j), CHUNK_SIZE)
            for j in range(min(window_len, info.chunks))])
    return mem, sq.shadow_tail, state, info, window


def _oracle_fetch(state, info, mem, counter, clock, oracle, window):
    """The per-chunk fetch: each chunk's TLP (a ``corrupt_tlp``
    opportunity), its fetch time, then its ``corrupt_chunk`` decision."""
    batch = device_dma_read(CHUNK_SIZE, _LINK)
    chunks = []
    for i in range(info.chunks):
        raw = window.take(state.head) if window is not None else None
        if raw is not None:
            state.advance()
            clock.advance(_TIMING.burst_sqe_logic_ns)
        else:
            raw = mem.read(state.slot_addr(state.head), CHUNK_SIZE)
            state.advance()
            counter.record(CAT_INLINE_CHUNK, batch)
            if oracle.fire(CORRUPT_TLP):
                counter.record(CAT_INLINE_CHUNK, batch)
                counter.record_event(EVT_TLP_REPLAY)
            clock.advance(_TIMING.chunk_fetch_ns)
        if oracle.fire(CORRUPT_CHUNK):
            raise ChunkCorruptionError(
                f"SQ{state.qid}: inline chunk {i + 1}/{info.chunks} "
                f"failed its integrity check")
        chunks.append(raw)
    return join_chunks(chunks, info.payload_len)


def _outcome(call):
    try:
        return call()
    except (ChunkCorruptionError, CrashCut) as exc:
        return (type(exc).__name__, str(exc))


@given(plans(), st.one_of(st.none(), st.integers(0, 80)),
       st.lists(st.tuples(st.integers(1, 12 * CHUNK_SIZE),
                          st.integers(0, 12), st.integers(0, 63)),
                min_size=1, max_size=8))
@example(plan=FaultPlan(seed=0, rates={CORRUPT_CHUNK: 0.2}), cut=5,
         fetches=[(12 * CHUNK_SIZE, 0, 0)] * 3)  # a cut right after a chunk event
# A 2-chunk window prefix, then 4 DMA'd chunks in slots 63, 0, 1, 2:
# the first fetch's chunk 5 (slot 1, past the ring end) is corrupt, the
# second fetch wraps the same way with no event inside.
@example(plan=FaultPlan(seed=0, schedule={CORRUPT_CHUNK: [4]}), cut=None,
         fetches=[(6 * CHUNK_SIZE, 2, 60)] * 2)
@settings(max_examples=200, deadline=None)
def test_inline_fetch_matches_per_chunk_loop(plan, cut, fetches):
    """``fetch_inline_payload`` charging payloads in bulk ≡ the
    per-chunk loop: same payload or error, head, clock, traffic,
    counters, and a TLP crash cut landing on the same chunk at the same
    instant."""
    got_counter, want_counter = TrafficCounter(), TrafficCounter()
    got = FaultInjector(plan, counter=got_counter)
    want = OracleInjector(plan, counter=want_counter)
    link = PCIeLink(_LINK, _TIMING, got_counter, injector=got)
    got_clock, want_clock = SimClock(), SimClock()
    if cut is not None:
        got.arm_crash(CrashPlan(CUT_TLP, cut))
        want.arm_crash(CrashPlan(CUT_TLP, cut))
    for size, window_len, start in fetches:
        payload = bytes(i % 251 for i in range(size))
        mem, tail, got_state, info, window = _inline_sq(
            payload, window_len, start)
        result = _outcome(lambda: fetch_inline_payload(
            got_state, info, tail, mem, link, got_clock, _TIMING,
            injector=got, window=window))
        mem, tail, want_state, info, window = _inline_sq(
            payload, window_len, start)
        expect = _outcome(lambda: _oracle_fetch(
            want_state, info, mem, want_counter, want_clock, want, window))
        assert result == expect
        assert got_state.head == want_state.head
        assert got_clock.now == want_clock.now
        assert _snapshot(got, got_counter) == _snapshot(want, want_counter)
        assert got_counter.tlp_breakdown() == want_counter.tlp_breakdown()
        assert got_counter.breakdown() == want_counter.breakdown()


def test_block_draws_match_scalar_draws():
    """The premise of drawing ahead: ``random(size=B)`` yields the same
    doubles as B scalar ``random()`` calls on the same stream."""
    a, b = make_rng(7, stream="fault.x"), make_rng(7, stream="fault.x")
    block = a.random(1000)
    assert [float(x) for x in block] == [float(b.random())
                                         for _ in range(1000)]


def test_rigs_do_not_share_countdowns():
    """Components built without an injector get a private one, so no
    countdown or counter is carried from one rig to the next."""
    timing, config = TimingModel(), LinkConfig()
    first = PCIeLink(config, timing)
    first.record_only("cqe", device_dma_read(16, config), 5)
    second = PCIeLink(config, timing)
    assert first.faults is not second.faults
    assert second.faults.opportunities[CORRUPT_TLP] == 0
