"""Noisy-neighbor isolation under multi-tenant QoS (ISSUE 7).

An aggressor tenant blasting 4 KiB PRP writes shares the controller's
fetch unit with a victim tenant running the paper's small-payload
regime (64 B ByteExpress inline writes).  Three interleaved scenarios:

* ``solo`` — the victim alone (the undisturbed tail);
* ``contended`` — aggressor added, QoS off: the victim's p99/p99.9
  absorb the aggressor's 4 KiB fetches head-of-line;
* ``qos`` — same contention, but the arbiter throttles the aggressor
  with a byte-rate token bucket and weights the victim up.  The
  victim's tail must come back to within ``QOS_P99_BOUND`` × solo.

Results are archived twice: the human-readable table, and
``results/noisy_neighbor.json`` whose victim cells carry ``p99_us`` —
the *higher-is-worse* metric ``check_perf_regression.py`` guards, so a
change that silently erodes QoS isolation fails CI.  Regenerate the
committed baseline deliberately with::

    PYTHONPATH=src python benchmarks/test_noisy_neighbor.py
"""

from __future__ import annotations

import json
import pathlib

import pytest

from conftest import DEFAULT_OPS, RESULTS_DIR, report
from repro.datapath import names as dp_names
from repro.engine import LoadGenerator, StreamSpec
from repro.metrics import format_table
from repro.pcie.traffic import CAT_CMD_FETCH, CAT_DOORBELL
from repro.testbed import make_virt_testbed
from repro.virt import QosParams, TenantManager

RESULTS_PATH = RESULTS_DIR / "noisy_neighbor.json"

VICTIM_SIZE = 64
AGGRESSOR_SIZE = 4096
#: Victim p99 with QoS on may not exceed this multiple of its solo p99.
QOS_P99_BOUND = 2.0

#: Aggressor budget: enough for steady progress, far below line rate —
#: the bucket drains on every 4 KiB burst and the victim slots in.
AGGRESSOR_QOS = QosParams(weight=1, bytes_per_sec=200e6, burst_bytes=2 * 4160)
VICTIM_QOS = QosParams(weight=4)


def _scenario(name: str, ops: int, aggressor: bool, qos: bool) -> dict:
    tb = make_virt_testbed()
    mgr = TenantManager(tb, qos=qos)
    tenants = [mgr.provision("victim", qos=VICTIM_QOS if qos else None)]
    # One stream per tenant; stream 0 is the victim.
    streams = [StreamSpec(stream_id=0, ops=ops, size=f"fixed:{VICTIM_SIZE}",
                          method=dp_names.BYTEEXPRESS, concurrency=4)]
    if aggressor:
        tenants.append(mgr.provision(
            "aggressor", qos=AGGRESSOR_QOS if qos else None))
        streams.append(StreamSpec(stream_id=1, ops=ops,
                                  size=f"fixed:{AGGRESSOR_SIZE}",
                                  method=dp_names.PRP, concurrency=8))
    engines = {s.stream_id: mgr.engine(t, qd=s.concurrency)
               for s, t in zip(streams, tenants)}
    tlps_before = {c: tb.traffic.category(c).tlp_count
                   for c in (CAT_DOORBELL, CAT_CMD_FETCH)}
    result = LoadGenerator(engines, streams).run()
    total_ok = result.total_ok
    victim = result.streams[0]
    assert victim.ok == ops, victim
    mgr.teardown_all()
    return {
        "method": f"noisy_victim_{name}",
        "doorbell": tb.ssd.config.doorbell_mode,
        "burst": tb.ssd.config.burst_limit,
        "kiops": victim.kops,
        "p99_us": victim.latency.p99 / 1000,
        "p999_us": victim.latency.p999 / 1000,
        "p50_us": victim.latency.p50 / 1000,
        "tlps_per_op": {
            c: (tb.traffic.category(c).tlp_count - tlps_before[c])
            / max(total_ok, 1)
            for c in (CAT_DOORBELL, CAT_CMD_FETCH)},
    }


def run_scenarios(ops: int) -> dict:
    return {
        "solo": _scenario("solo", ops, aggressor=False, qos=False),
        "contended": _scenario("contended", ops, aggressor=True, qos=False),
        "qos": _scenario("qos", ops, aggressor=True, qos=True),
    }


@pytest.fixture(scope="module")
def scenarios():
    return run_scenarios(DEFAULT_OPS * 2)


def _render(scenarios: dict) -> str:
    rows = [[name, f"{c['kiops']:.1f}", f"{c['p50_us']:.2f}",
             f"{c['p99_us']:.2f}", f"{c['p999_us']:.2f}"]
            for name, c in scenarios.items()]
    return format_table(
        ["scenario", "victim kops", "p50 (us)", "p99 (us)", "p99.9 (us)"],
        rows,
        title=(f"Noisy neighbor — victim {VICTIM_SIZE} B inline writes vs "
               f"aggressor {AGGRESSOR_SIZE} B PRP writes, QoS off/on"))


def test_noisy_neighbor_report(scenarios):
    report("noisy_neighbor", _render(scenarios))
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "config": {"victim_size": VICTIM_SIZE,
                   "aggressor_size": AGGRESSOR_SIZE,
                   "ops": DEFAULT_OPS * 2,
                   "qos_p99_bound": QOS_P99_BOUND},
        "cells": [scenarios[k] for k in sorted(scenarios)],
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True)
                            + "\n")


def test_aggressor_degrades_unprotected_victim(scenarios):
    """Without QoS the aggressor's 4 KiB fetches inflate the victim tail."""
    assert scenarios["contended"]["p99_us"] > scenarios["solo"]["p99_us"]


def test_qos_bounds_victim_tail(scenarios):
    """ISSUE 7 acceptance: bounded victim p99 degradation with QoS on."""
    solo = scenarios["solo"]["p99_us"]
    protected = scenarios["qos"]["p99_us"]
    contended = scenarios["contended"]["p99_us"]
    assert protected < contended, (
        f"QoS did not improve the victim tail: {protected:.2f} vs "
        f"{contended:.2f} us")
    assert protected <= solo * QOS_P99_BOUND, (
        f"victim p99 {protected:.2f} us exceeds {QOS_P99_BOUND}x solo "
        f"({solo:.2f} us)")


if __name__ == "__main__":
    RESULTS_DIR.mkdir(exist_ok=True)
    scen = run_scenarios(DEFAULT_OPS * 2)
    RESULTS_PATH.write_text(json.dumps({
        "config": {"victim_size": VICTIM_SIZE,
                   "aggressor_size": AGGRESSOR_SIZE,
                   "ops": DEFAULT_OPS * 2,
                   "qos_p99_bound": QOS_P99_BOUND},
        "cells": [scen[k] for k in sorted(scen)],
    }, indent=1, sort_keys=True) + "\n")
    print(_render(scen))
    print(f"captured {RESULTS_PATH}")
