"""The benchmark's own checks.

Run from the repository root::

    python3 -m pytest perfbench -q

* Two runs with one seed give identical deterministic metrics — every
  ``sim_*``, ``pcie_bytes_per_op``, ``*.calls_per_op``, ``span.*`` and
  ``pcie.tlps_per_op.*`` — and a second seed runs green.
* The package → layer map covers every ``repro`` module, fails on a new
  unmapped one, and leaves under 5 % of self time unattributed.
* ``BENCHMARK.json`` and ``spec.json`` name exactly the metrics the
  benchmark emits, with the units it emits.
"""

from __future__ import annotations

import functools
import json
import os
import re
import subprocess
import sys

import pytest

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
WORKLOADS = ("engine_inline", "engine_faulted", "passthru_qd1", "kv_serving")

DETERMINISTIC = re.compile(
    r"^(sim_.*|pcie_bytes_per_op|.*\.calls_per_op|span\..*"
    r"|pcie\.tlps_per_op\..*)$")


@functools.lru_cache(maxsize=None)
def _run(workload: str, seed: int, trace: int, attempt: int = 0):
    """One benchmark process at its minimum repetition count.

    *attempt* only distinguishes otherwise identical runs in the cache.
    """
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _spec(name: str) -> dict:
    with open(os.path.join(ROOT if name == "BENCHMARK.json" else HERE,
                           name)) as fh:
        return json.load(fh)


def _values(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_repeats_exactly(workload):
    for trace in (0, 1):
        _, first = _run(workload, 1, trace)
        _, again = _run(workload, 1, trace, attempt=1)
        assert first["correct"] and again["correct"]
        a, b = _values(first), _values(again)
        det = sorted(k for k in a if DETERMINISTIC.match(k))
        assert det, f"{workload}: no deterministic metrics at trace {trace}"
        assert {k: a[k] for k in det} == {k: b[k] for k in det}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_runs_green(workload):
    _, result = _run(workload, 2, 0)
    assert result["correct"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert result["metrics"]["verified_ops_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_unattributed_self_time_under_five_percent(workload):
    lines, _ = _run(workload, 1, 1)
    share = [float(m.group(1)) for line in lines
             for m in [re.search(r"unattributed self time ([\d.]+)%", line)]
             if m]
    assert share and share[0] < 5.0, lines


def test_layer_map_covers_every_package():
    modules = list(layers.repro_modules(SRC))
    assert "repro.engine.loadgen" in modules
    unmapped = [m for m in modules if layers.layer_of_module(m) is None]
    assert not unmapped, f"map these packages to a layer: {unmapped}"
    assert layers.layer_of_module("repro.engine.loadgen") == "workloads"
    assert layers.layer_of_module("repro.engine.reactor") == "engine"
    assert set(layers.PACKAGE_LAYERS.values()) <= set(layers.LAYERS)


def test_layer_map_fails_on_new_package():
    assert layers.layer_of_module("repro.newpkg") is None
    assert layers.layer_of_module("repro.newpkg.mod") is None
    assert layers.layer_of_module("repro.newmodule") is None


def test_layer_map_has_no_stale_entries():
    modules = set(layers.repro_modules(SRC))
    for name in list(layers.PACKAGE_LAYERS) + list(layers.TOP_LEVEL_LAYERS):
        assert any(m == name or m.startswith(name + ".") for m in modules), name


def test_boundaries_resolve():
    keys = layers.boundary_keys()
    assert set(keys) == set(layers.BOUNDARIES)
    assert all(keys.values()), [k for k, v in keys.items() if not v]


def test_declared_metrics_match_emitted():
    bench = _spec("BENCHMARK.json")
    spec = _spec("spec.json")
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert list(spec["workloads"]) == list(WORKLOADS)
    for key, trace in (("end_to_end", 0), ("per_layer", 1)):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        assert list(spec[key]) == list(declared)
        for workload in WORKLOADS:
            _, result = _run(workload, 1, trace)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            assert emitted == declared, workload
            for name, meta in spec[key].items():
                assert meta["unit"] == declared[name]
                value = result["metrics"][name]["value"]
                if workload in meta["workloads"]:
                    assert value != 0, (workload, name)
