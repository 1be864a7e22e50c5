"""Pre-wired testbeds: one call builds the full simulated rig.

Each factory assembles the stack the paper's corresponding experiment ran
on — OpenSSD model, device personality, host driver, and the transfer
method suite — sharing one clock and one traffic counter so measurements
are end-to-end consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.csd.pushdown import CsdPersonality
from repro.host.driver import NvmeDriver
from repro.host.errors import DriverError
from repro.kvssd.kvssd import KvSsdPersonality
from repro.sim.config import SimConfig
from repro.ssd.controller import MODE_QUEUE_LOCAL
from repro.ssd.device import BlockSsdPersonality, OpenSsd
from repro.transfer import TransferMethod, make_methods


@dataclass
class Testbed:
    """A complete simulated host + SSD pair."""

    ssd: OpenSsd
    driver: NvmeDriver
    methods: Dict[str, TransferMethod]
    #: The active device personality (block / KV / CSD object).
    personality: object
    #: Protocol monitor, when ``REPRO_VERIFY`` is set (else None).
    monitor: Optional[object] = None

    @property
    def clock(self):
        return self.ssd.clock

    @property
    def traffic(self):
        return self.ssd.traffic

    def method(self, name: str) -> TransferMethod:
        try:
            return self.methods[name]
        except KeyError:
            raise DriverError(f"unknown transfer method {name!r}; "
                              f"have {sorted(self.methods)}") from None

    def unmonitor(self) -> "Testbed":
        """Detach the ``REPRO_VERIFY`` protocol monitor, if armed.

        For tests that *forge* protocol violations (torn shadow
        stores, malformed inline lengths) to probe device robustness:
        the monitor flagging those is correct, but they are the test's
        subject, not a bug.  Returns self for chaining.
        """
        if self.monitor is not None:
            self.monitor.detach()  # type: ignore[attr-defined]
            self.monitor = None
        return self

    def make_engine(self, queues: Optional[int] = None, qd: int = 8,
                    policy: str = "round_robin"):
        """Build an :class:`~repro.engine.IoEngine` over this rig.

        *queues* limits the engine to the first N of the rig's I/O
        queues (default: all of them).
        """
        from repro.engine import IoEngine

        qids = self.driver.io_qids
        if queues is not None:
            if not 1 <= queues <= len(qids):
                raise ValueError(
                    f"rig has {len(qids)} I/O queues, cannot run on "
                    f"{queues}")
            qids = qids[:queues]
        engine = IoEngine(self.ssd, self.driver, queues=qids, qd=qd,
                          policy=policy)
        if self.monitor is not None:
            self.monitor.attach_engine(engine)  # type: ignore[attr-defined]
        return engine

    def make_service(self, queues: Optional[int] = None, qd: int = 8,
                     policy: str = "round_robin", **service_kwargs):
        """Build a :class:`~repro.kvssd.KvService` over this rig.

        Constructs the async engine (monitored under ``REPRO_VERIFY``)
        and the serving front-end bound to the rig's KV personality;
        *service_kwargs* pass through to :class:`KvService` (method,
        batch window, cache size, ...).  When the monitor is armed and
        the cache is enabled, every cache hit is shadow-read from the
        device (the INV_CACHE_COHERENT oracle).
        """
        from repro.kvssd.service import KvService

        engine = self.make_engine(queues=queues, qd=qd, policy=policy)
        service = KvService(engine, personality=self.personality,
                            **service_kwargs)
        if self.monitor is not None and service.cache is not None:
            self.monitor.attach_service(service)  # type: ignore[attr-defined]
        return service


def _finish(tb: Testbed) -> Testbed:
    """Arm the protocol monitor when ``REPRO_VERIFY`` asks for it."""
    from repro.verify import maybe_attach

    tb.monitor = maybe_attach(tb)
    return tb


def make_block_testbed(config: Optional[SimConfig] = None,
                       mode: str = MODE_QUEUE_LOCAL,
                       include_mmio: bool = True,
                       fault_plan=None) -> Testbed:
    """Block-SSD rig: the Figure 1(b)/1(c)/5 microbenchmark setup.

    *fault_plan* (a :class:`repro.faults.FaultPlan`) arms deterministic
    fault injection on the rig's link, firmware, and driver.
    """
    ssd = OpenSsd(config or SimConfig().nand_off(), mode=mode,
                  fault_plan=fault_plan)
    personality = BlockSsdPersonality(ssd)
    driver = NvmeDriver(ssd)
    methods = make_methods(ssd, driver, include_mmio=include_mmio)
    return _finish(Testbed(ssd=ssd, driver=driver, methods=methods,
                           personality=personality))


def make_engine_testbed(queues: int = 4,
                        config: Optional[SimConfig] = None,
                        mode: str = MODE_QUEUE_LOCAL,
                        include_mmio: bool = False,
                        fault_plan=None) -> Testbed:
    """Block-SSD rig sized for the asynchronous engine's scaling runs.

    Unless an explicit *config* is given, the rig gets exactly *queues*
    I/O queue pairs with NAND off — the configuration the queue-count ×
    queue-depth ablation sweeps.  Combine with
    :meth:`Testbed.make_engine` to obtain the engine itself.
    """
    cfg = config or SimConfig(num_io_queues=queues).nand_off()
    if cfg.num_io_queues < queues:
        raise ValueError(f"config has {cfg.num_io_queues} I/O queues, "
                         f"engine rig needs {queues}")
    return make_block_testbed(config=cfg, mode=mode,
                              include_mmio=include_mmio,
                              fault_plan=fault_plan)


#: I/O queue pairs a multi-tenant rig's controller advertises.
VIRT_MAX_QUEUES = 1024


def make_virt_testbed(config: Optional[SimConfig] = None,
                      fault_plan=None) -> Testbed:
    """Block-SSD rig sized for multi-tenant provisioning at scale.

    The controller advertises ``VIRT_MAX_QUEUES`` I/O queue pairs (the
    stock Cosmos+-class identify page caps at 16, far too few for
    hundreds of tenants), while the host brings up only one for itself
    (a supplied *config* sets its own count) — every further pair is
    created on demand by the :class:`~repro.virt.TenantManager`.  Rings
    default to depth 64 so hundreds of queue pairs stay cheap, and MMIO
    doorbells (the config default) put no ceiling on qids (the shadow
    page stops at ``MAX_QID``).
    """
    from repro.nvme.identify import IdentifyController

    cfg = config or SimConfig(num_io_queues=1, sq_depth=64,
                              cq_depth=64).nand_off()
    if not 1 <= cfg.num_io_queues <= VIRT_MAX_QUEUES:
        raise ValueError(f"host bring-up queues ({cfg.num_io_queues}) "
                         f"exceed the advertised limit {VIRT_MAX_QUEUES}")
    ssd = OpenSsd(cfg, fault_plan=fault_plan)
    # Before the driver's bring-up IDENTIFY reads it.
    ssd.controller.identify_data = IdentifyController(
        num_io_queues=VIRT_MAX_QUEUES)
    personality = BlockSsdPersonality(ssd)
    driver = NvmeDriver(ssd)
    methods = make_methods(ssd, driver, include_mmio=False)
    return _finish(Testbed(ssd=ssd, driver=driver, methods=methods,
                           personality=personality))


def make_kv_testbed(config: Optional[SimConfig] = None,
                    memtable_entries: int = 4096,
                    include_mmio: bool = False,
                    fault_plan=None) -> Testbed:
    """KV-SSD rig with NAND enabled: the Figure 6 setup."""
    ssd = OpenSsd(config or SimConfig(), fault_plan=fault_plan)
    personality = KvSsdPersonality(ssd, memtable_entries=memtable_entries)
    driver = NvmeDriver(ssd)
    methods = make_methods(ssd, driver, include_mmio=include_mmio)
    return _finish(Testbed(ssd=ssd, driver=driver, methods=methods,
                           personality=personality))


def make_csd_testbed(config: Optional[SimConfig] = None,
                     execute_inline: bool = True,
                     include_mmio: bool = False,
                     fault_plan=None) -> Testbed:
    """CSD rig: the Figure 7 pushdown setup."""
    ssd = OpenSsd(config or SimConfig().nand_off(), fault_plan=fault_plan)
    personality = CsdPersonality(ssd, execute_inline=execute_inline)
    driver = NvmeDriver(ssd)
    methods = make_methods(ssd, driver, include_mmio=include_mmio)
    return _finish(Testbed(ssd=ssd, driver=driver, methods=methods,
                           personality=personality))
