"""PCIe energy estimation.

The paper motivates ByteExpress partly by the "unnecessary power
consumption" of PRP's traffic bloat (§1, citing POLARDB's computational-
storage experience).  This model turns the traffic counter and elapsed
time into an energy estimate so the benches can report nJ/op per method.

Model: link energy is dominated by moved bytes (serialisation, SerDes)
plus a per-TLP processing cost, with a static idle floor proportional to
time.  Defaults follow published PCIe PHY figures (~5 pJ/bit ≈ 40 pJ/B
for Gen2-era SerDes) and are deliberately conservative; the *relative*
per-method comparison is the point, as with the latency model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pcie.traffic import TrafficCounter


@dataclass(frozen=True)
class EnergyModel:
    """Energy coefficients."""

    #: Dynamic link energy per wire byte (pJ/B).
    pj_per_byte: float = 40.0
    #: Per-TLP protocol processing energy (pJ), both endpoints combined.
    pj_per_tlp: float = 250.0
    #: Static link + PHY idle power (mW) charged over elapsed time.
    idle_mw: float = 150.0

    def dynamic_nj(self, counter: TrafficCounter) -> float:
        """Traffic-dependent energy in nanojoules."""
        return (counter.total_bytes * self.pj_per_byte
                + counter.tlp_count * self.pj_per_tlp) / 1000.0

    def static_nj(self, elapsed_ns: float) -> float:
        """Idle-floor energy in nanojoules over *elapsed_ns*."""
        if elapsed_ns < 0:
            raise ValueError("negative elapsed time")
        # mW * ns = pJ;  / 1000 -> nJ.
        return self.idle_mw * elapsed_ns / 1000.0 / 1000.0


@dataclass(frozen=True)
class EnergyReport:
    """Per-run energy summary."""

    ops: int
    dynamic_nj: float
    static_nj: float

    @property
    def total_nj(self) -> float:
        return self.dynamic_nj + self.static_nj

    @property
    def nj_per_op(self) -> float:
        return self.total_nj / self.ops if self.ops else 0.0


def measure_energy(counter: TrafficCounter, elapsed_ns: float, ops: int,
                   model: EnergyModel = EnergyModel()) -> EnergyReport:
    """Summarise a run's estimated link energy."""
    if ops <= 0:
        raise ValueError("ops must be positive")
    return EnergyReport(ops=ops,
                        dynamic_nj=model.dynamic_nj(counter),
                        static_nj=model.static_nj(elapsed_ns))
