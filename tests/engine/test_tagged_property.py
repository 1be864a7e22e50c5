"""Property test: tagged-mode reassembly is byte-identical under
randomized engine interleavings (ISSUE 2, satellite 3).

Hypothesis drives the whole configuration space at once — queue count
(2-8), queue-depth cap (<=32), placement policy, payload sizes, and
CQE-delay fault rates — and the invariant is absolute: every payload
submitted through the asynchronous engine in tagged mode must read back
byte-identical from the backing store, no matter how the multi-queue
scheduler interleaved its chunks across SQs.
"""

from hypothesis import given, settings, strategies as st

from repro.engine.scheduler import POLICIES
from repro.faults.plan import DELAY_CQE, FaultPlan
from repro.ssd.controller import MODE_TAGGED
from repro.testbed import make_engine_testbed


@settings(max_examples=20, deadline=None)
@given(
    queues=st.integers(min_value=2, max_value=8),
    qd=st.integers(min_value=2, max_value=32),
    policy=st.sampled_from(POLICIES),
    sizes=st.lists(st.integers(min_value=1, max_value=300),
                   min_size=4, max_size=24),
    delay_rate=st.sampled_from([0.0, 0.05, 0.25]),
    fault_seed=st.integers(min_value=0, max_value=2 ** 16),
)
def test_tagged_reassembly_byte_identical(queues, qd, policy, sizes,
                                          delay_rate, fault_seed):
    plan = (FaultPlan.uniform(delay_rate, seed=fault_seed,
                              kinds=(DELAY_CQE,))
            if delay_rate else None)
    tb = make_engine_testbed(queues=queues, mode=MODE_TAGGED,
                             fault_plan=plan)
    engine = tb.make_engine(queues=queues, qd=qd, policy=policy)
    payloads = [bytes((i * 37 + j) % 251 + 1 for j in range(size))
                for i, size in enumerate(sizes)]
    futures = [engine.submit(p, cdw10=i * 4096, stream=i)
               for i, p in enumerate(payloads)]
    engine.drain()

    assert all(f.ok for f in futures), [f.state for f in futures]
    for i, p in enumerate(payloads):
        assert tb.personality.read_back(i * 4096, len(p)) == p, (
            f"payload {i} (len {len(p)}) corrupted by interleaving")
    # no reassembly state, payload ids, or CIDs may leak
    assert tb.ssd.controller._reassembly.in_flight == 0
    assert not engine.driver._live_payload_ids
    for qid in engine.qids:
        assert tb.driver.inflight(qid) == 0
