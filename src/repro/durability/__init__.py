"""Persistence domains, crash cuts, and the crash-recovery harness.

The paper's inline transfer work quietly assumes a durability contract:
a completion (CQE) for a write-class command means the payload is — or
will deterministically become — durable.  This package makes the
simulator's side of that contract explicit:

* :mod:`repro.durability.domains` — the persistence-domain taxonomy
  (``HOST_VOLATILE`` / ``DEVICE_VOLATILE`` / ``PERSISTENT``), the
  :class:`Persistable` scrub protocol (plus :class:`Checkpointed` for
  the journal recovery re-reads), and the :class:`DurabilityMap`.
* :mod:`repro.durability.harness` — :func:`run_crash`: run a workload,
  cut power at a seeded TLP/doorbell/CQE opportunity
  (:class:`repro.faults.plan.CrashPlan`), recover (controller reset,
  driver re-init, value-log replay to the durable watermark), and
  check every *acknowledged* write survived.
* :mod:`repro.durability.matrix` — :func:`run_matrix`, the seeded
  crash-matrix sweep (cut-point × datapath method × queue depth).

Only ``domains`` is imported eagerly: the device model registers with
the taxonomy at construction, so this package root executes inside
``repro.ssd.device``'s import and must stay cycle-free.  The harness
and matrix names below resolve lazily on first attribute access.
"""

from typing import Any

from repro.durability.domains import (
    ALL_DOMAINS,
    DEVICE_VOLATILE,
    HOST_VOLATILE,
    PERSISTENT,
    VOLATILE_DOMAINS,
    DurabilityMap,
    Persistable,
)

__all__ = [
    "ALL_DOMAINS",
    "DEVICE_VOLATILE",
    "HOST_VOLATILE",
    "PERSISTENT",
    "VOLATILE_DOMAINS",
    "DurabilityMap",
    "Persistable",
    "CrashReport",
    "CrashSpec",
    "MatrixCell",
    "MatrixResult",
    "run_crash",
    "run_matrix",
]

#: Lazily resolved exports: name -> defining submodule.
_LAZY = {
    "CrashReport": "repro.durability.harness",
    "CrashSpec": "repro.durability.harness",
    "run_crash": "repro.durability.harness",
    "make_crash_testbed": "repro.durability.harness",
    "MatrixCell": "repro.durability.matrix",
    "MatrixResult": "repro.durability.matrix",
    "default_cells": "repro.durability.matrix",
    "run_matrix": "repro.durability.matrix",
    "sweep_cell": "repro.durability.matrix",
}


def __getattr__(name: str) -> Any:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
