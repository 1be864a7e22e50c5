"""Layer attribution for the traced run.

A *layer* is one of the repo's packages.  A cProfile row is attributed
to a layer by the file its function lives in:

* ``src/repro/<package>/...`` maps through :data:`PACKAGE_LAYERS`;
* this benchmark's own files count as ``workloads`` — the harness is
  the load generator, and its cost must not pass for program cost;
* C functions (cProfile's ``~`` file), ``<frozen ...>`` code, the
  standard library and third-party packages (NumPy) count as
  ``builtins``.

Anything else is *unattributed*; the benchmark's tests keep its self
time under 5 %.

Boundaries are the layers' public entry points, named by import path so
that the lookup needs no change in ``src/``.  A boundary's cumulative
time sums only the calls that enter it from outside, so one entry point
calling another of the same boundary is not counted twice.
"""

from __future__ import annotations

import importlib
import inspect
import os
import pstats
import sys
import sysconfig
from typing import Dict, Iterable, List, Optional, Tuple

LAYERS: Tuple[str, ...] = (
    "workloads", "kvssd", "engine", "transfer", "host", "datapath",
    "core", "nvme", "ssd", "pcie", "faults", "sim", "builtins",
)

#: Every ``repro`` package (prefix match) and top-level module (exact
#: match) → layer.  A new package must be added here; the benchmark's
#: tests fail on an unmapped one.
PACKAGE_LAYERS: Dict[str, str] = {
    # The load generator sits in the engine package but is client code.
    "repro.engine.loadgen": "workloads",
    "repro.workloads": "workloads",
    "repro.metrics": "workloads",
    "repro.kvssd": "kvssd",
    "repro.csd": "kvssd",
    "repro.engine": "engine",
    "repro.transfer": "transfer",
    "repro.host": "host",
    "repro.virt": "host",
    "repro.datapath": "datapath",
    "repro.core": "core",
    "repro.nvme": "nvme",
    "repro.ssd": "ssd",
    "repro.pcie": "pcie",
    "repro.faults": "faults",
    "repro.sim": "sim",
    "repro.durability": "sim",
    "repro.verify": "sim",
    "repro.tools": "sim",
}
TOP_LEVEL_LAYERS: Dict[str, str] = {
    "repro": "sim",
    "repro.__main__": "sim",
    "repro.cli": "sim",
    "repro.testbed": "sim",
}

#: Boundary name → entry points, as ``module:Class.method``.
BOUNDARIES: Dict[str, Tuple[str, ...]] = {
    "engine.submit": ("repro.engine.engine:IoEngine.submit",
                      "repro.engine.engine:IoEngine.submit_read"),
    "engine.poll": ("repro.engine.engine:IoEngine.poll",),
    "engine.drive_device": (
        "repro.engine.reactor:CompletionReactor.drive_device",),
    "engine.reap_all": ("repro.engine.reactor:CompletionReactor.reap_all",),
    "host.submit": ("repro.host.driver:NvmeDriver.submit",
                    "repro.host.driver:NvmeDriver.submit_raw"),
    "host.kick": ("repro.host.driver:NvmeDriver.kick",),
    "host.reap": ("repro.host.driver:NvmeDriver.reap",),
    "host.passthru": ("repro.host.driver:NvmeDriver.passthru",),
    # Every TransferMethod subclass's own ``write`` (resolved at runtime).
    "transfer.write": (),
    "ssd.poll_once": ("repro.ssd.controller:NvmeController.poll_once",),
    "ssd.fetch_and_execute": ("repro.ssd.fetch:FetchUnit.fetch_and_execute",
                              "repro.ssd.fetch:FetchUnit.burst_fetch"),
    "ssd.complete": ("repro.ssd.completion_unit:CompletionUnit.complete",),
    "kvssd.service_poll": ("repro.kvssd.service:KvService.poll",),
    "kvssd.put": ("repro.kvssd.service:KvSession.put",),
    "kvssd.get": ("repro.kvssd.service:KvSession.get",),
    "kvssd.lsm_get": ("repro.kvssd.lsm:LsmIndex.get",),
    "kvssd.vlog_append": ("repro.kvssd.value_log:ValueLog.append",),
    "pcie.record": ("repro.pcie.traffic:TrafficCounter.record",
                    "repro.pcie.traffic:TrafficCounter.record_batch"),
    "faults.fire": ("repro.faults.plan:FaultInjector.fire",),
}

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
_STDLIB_DIRS = tuple(
    os.path.realpath(p) for p in {
        sysconfig.get_paths()["stdlib"], sysconfig.get_paths()["platstdlib"],
        sysconfig.get_paths()["purelib"], sysconfig.get_paths()["platlib"],
        sys.base_prefix, sys.prefix} if p)

FuncKey = Tuple[str, int, str]


def layer_of_module(module: str) -> Optional[str]:
    """Layer of a ``repro`` module name, or None when unmapped."""
    if module in TOP_LEVEL_LAYERS:
        return TOP_LEVEL_LAYERS[module]
    parts = module.split(".")
    for n in range(len(parts), 1, -1):
        layer = PACKAGE_LAYERS.get(".".join(parts[:n]))
        if layer is not None:
            return layer
    return None


def _module_of_file(filename: str) -> Optional[str]:
    """``.../src/repro/engine/loadgen.py`` → ``repro.engine.loadgen``."""
    parts = os.path.normpath(filename).split(os.sep)
    if "repro" not in parts:
        return None
    idx = len(parts) - 1 - parts[::-1].index("repro")
    if idx == 0 or parts[idx - 1] != "src":
        return None
    mod = parts[idx:]
    mod[-1] = os.path.splitext(mod[-1])[0]
    if mod[-1] == "__init__":
        mod = mod[:-1]
    return ".".join(mod)


class LayerMap:
    """Memoised filename → layer lookup."""

    def __init__(self) -> None:
        self._memo: Dict[str, Optional[str]] = {}

    def layer(self, filename: str) -> Optional[str]:
        got = self._memo.get(filename, "")
        if got != "":
            return got
        got = self._memo[filename] = self._classify(filename)
        return got

    @staticmethod
    def _classify(filename: str) -> Optional[str]:
        if filename == "~" or filename.startswith("<"):
            return "builtins"
        module = _module_of_file(filename)
        if module is not None:
            return layer_of_module(module)
        real = os.path.realpath(filename)
        if real.startswith(_BENCH_DIR + os.sep):
            return "workloads"
        if real.startswith(_STDLIB_DIRS):
            return "builtins"
        return None


def _resolve(path: str):
    module_name, _, qual = path.partition(":")
    obj = importlib.import_module(module_name)
    for part in qual.split("."):
        obj = getattr(obj, part)
    return obj


def _code_key(func) -> FuncKey:
    code = inspect.unwrap(func).__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _transfer_writes() -> List[FuncKey]:
    import repro.transfer as transfer
    from repro.transfer.base import TransferMethod

    keys = set()
    seen = set()
    todo = [TransferMethod]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub in seen:
                continue
            seen.add(sub)
            todo.append(sub)
            if "write" in vars(sub) and sub.__module__.startswith(
                    transfer.__name__):
                keys.add(_code_key(vars(sub)["write"]))
    return sorted(keys)


def boundary_keys() -> Dict[str, List[FuncKey]]:
    """Boundary name → cProfile function keys of its entry points."""
    out = {name: [_code_key(_resolve(p)) for p in paths]
           for name, paths in BOUNDARIES.items()}
    out["transfer.write"] = _transfer_writes()
    return out


def attribute(stats: pstats.Stats, ops: int,
              boundaries: Dict[str, List[FuncKey]]
              ) -> Tuple[Dict[str, float], float]:
    """Per-layer and per-boundary metrics from one profile.

    Returns ``(metrics, unattributed_share)``; *ops* is the number of
    operations the profiled window ran.
    """
    lmap = LayerMap()
    calls = dict.fromkeys(LAYERS, 0)
    self_t = dict.fromkeys(LAYERS, 0.0)
    total_calls = 0
    total_t = 0.0
    lost_t = 0.0
    raw = stats.stats  # type: ignore[attr-defined]
    for (filename, _line, _name), (_cc, nc, tt, _ct, _callers) in raw.items():
        total_calls += nc
        total_t += tt
        layer = lmap.layer(filename)
        if layer is None:
            lost_t += tt
            continue
        calls[layer] += nc
        self_t[layer] += tt
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls_per_op"] = calls[layer] / ops
        metrics[f"{layer}.self_share"] = (self_t[layer] / total_t
                                          if total_t else 0.0)
    metrics["total.calls_per_op"] = total_calls / ops
    for name, keys in boundaries.items():
        members = set(keys)
        n = 0
        cum = 0.0
        for key in members:
            row = raw.get(key)
            if row is None:
                continue
            n += row[1]
            for caller, edge in row[4].items():
                if caller not in members:
                    cum += edge[3]
        metrics[f"{name}.calls_per_op"] = n / ops
        metrics[f"{name}.us_per_op"] = cum / ops * 1e6
    return metrics, (lost_t / total_t if total_t else 0.0)


def repro_modules(src_dir: str) -> Iterable[str]:
    """Every module under ``src/repro`` by dotted name."""
    root = os.path.join(src_dir, "repro")
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                mod = _module_of_file(os.path.join(dirpath, fn))
                if mod is not None:
                    yield mod
