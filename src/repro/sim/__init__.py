"""Simulation foundation: clock, configuration, deterministic RNG."""

from repro.sim.clock import SimClock
from repro.sim.config import (
    CQE_SIZE,
    PAGE_SIZE,
    SQE_SIZE,
    LinkConfig,
    SimConfig,
    TimingModel,
)
from repro.sim.rng import make_rng, random_bytes

__all__ = [
    "SimClock",
    "LinkConfig",
    "SimConfig",
    "TimingModel",
    "SQE_SIZE",
    "CQE_SIZE",
    "PAGE_SIZE",
    "make_rng",
    "random_bytes",
]
