"""Tenant provisioning over one simulated host/SSD rig.

:class:`TenantManager` carves a shared rig into isolated tenants, the
way an SR-IOV-less virtualization layer would (arXiv 2304.05148 §3:
queues are passed through to the guest, the host retains control of
allocation and isolation):

* each tenant gets a **private namespace** — its commands are tagged
  with the tenant's nsid and the controller rejects any command on the
  tenant's queues that names a different namespace
  (``INVALID_NAMESPACE_OR_FORMAT``);
* each tenant gets **dedicated SQ/CQ pairs**, created and deleted
  through the stock admin opcodes (CREATE/DELETE SQ/CQ) so teardown
  exercises the same lifecycle any host driver would;
* when QoS is enabled, all of a tenant's queues share one
  :class:`~repro.virt.qos.TenantBudget` enforced by the fetch unit's
  :class:`~repro.virt.qos.QosArbiter`.

``engine()`` returns a per-tenant :class:`~repro.engine.IoEngine`
facade pinned to the tenant's queues and namespace, so the load
generator and datapath codecs run unmodified per tenant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.nvme.constants import DEFAULT_NSID
from repro.virt.qos import QosArbiter, QosParams, TenantBudget


class VirtError(ValueError):
    """Tenant provisioning, lookup, or teardown misuse."""


@dataclass(frozen=True)
class TenantSpec:
    """What to provision for one tenant.

    ``nsid=None`` auto-assigns the next free namespace id (nsid 1 is
    reserved for the host's own I/O by convention).  ``qos=None`` takes
    the rig-wide defaults from :class:`~repro.sim.config.SimConfig`
    when the manager runs with QoS enabled.
    """

    name: str
    queues: int = 1
    nsid: Optional[int] = None
    qos: Optional[QosParams] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise VirtError("tenant needs a non-empty name")
        if self.queues < 1:
            raise VirtError(f"tenant {self.name!r} needs >= 1 queue, "
                            f"got {self.queues}")
        if self.nsid is not None and self.nsid <= 0:
            raise VirtError(f"tenant nsid must be positive, "
                            f"got {self.nsid}")


@dataclass
class Tenant:
    """One provisioned tenant: its namespace, queues, and QoS budget."""

    spec: TenantSpec
    nsid: int
    qids: List[int]
    budget: Optional[TenantBudget] = None

    @property
    def name(self) -> str:
        return self.spec.name


class TenantManager:
    """Provision and tear down tenants on a :class:`~repro.testbed.Testbed`.

    With ``qos=True`` the manager installs a
    :class:`~repro.virt.qos.QosArbiter` on the controller and registers
    every tenant queue with its tenant's budget; with ``qos=False`` the
    fetch path is byte-identical to a rig that never heard of tenants.
    """

    def __init__(self, tb, qos: bool = False) -> None:
        self.tb = tb
        self.ssd = tb.ssd
        self.driver = tb.driver
        self.ctrl = tb.ssd.controller
        self.qos_enabled = qos
        self.arbiter: Optional[QosArbiter] = None
        if qos:
            if self.ctrl.qos is not None:
                raise VirtError("controller already has a QoS arbiter")
            self.arbiter = QosArbiter(self.ssd.clock)
            self.ctrl.qos = self.arbiter
        self._tenants: Dict[str, Tenant] = {}
        self._owner_of_qid: Dict[int, Tenant] = {}
        self._next_nsid = DEFAULT_NSID + 1
        self.monitor = getattr(tb, "monitor", None)
        if self.monitor is not None:
            self.monitor.attach_virt(self)

    # -- lookups -----------------------------------------------------------
    def tenants(self) -> List[Tenant]:
        return list(self._tenants.values())

    def tenant(self, name: str) -> Tenant:
        try:
            return self._tenants[name]
        except KeyError:
            raise VirtError(f"no tenant named {name!r}; "
                            f"have {sorted(self._tenants)}")

    def owner_of(self, qid: int) -> Optional[Tenant]:
        """The tenant a queue belongs to (None for host-owned queues)."""
        return self._owner_of_qid.get(qid)

    def tenant_qids(self) -> List[int]:
        """Every queue id currently owned by some tenant."""
        return sorted(self._owner_of_qid)

    # -- provisioning ------------------------------------------------------
    def _alloc_nsid(self) -> int:
        used = {t.nsid for t in self._tenants.values()} | {DEFAULT_NSID}
        nsid = self._next_nsid
        while nsid in used:
            nsid += 1
        self._next_nsid = nsid + 1
        return nsid

    def provision(self, spec: Union[TenantSpec, str], *,
                  queues: int = 1, nsid: Optional[int] = None,
                  qos: Optional[QosParams] = None) -> Tenant:
        """Bring one tenant up: queues, namespace binding, QoS budget.

        Accepts either a full :class:`TenantSpec` or a bare name plus
        keyword knobs.  Partial failures roll back every queue already
        created, so a failed provision leaves no residue.
        """
        if isinstance(spec, str):
            spec = TenantSpec(name=spec, queues=queues, nsid=nsid, qos=qos)
        if spec.name in self._tenants:
            raise VirtError(f"tenant {spec.name!r} already provisioned")
        ns = spec.nsid if spec.nsid is not None else self._alloc_nsid()
        clash = next((t for t in self._tenants.values() if t.nsid == ns),
                     None)
        if clash is not None:
            raise VirtError(f"nsid {ns} already owned by tenant "
                            f"{clash.name!r}")
        budget = None
        if self.arbiter is not None:
            params = spec.qos or QosParams()
            budget = TenantBudget(spec.name, params)
        qids: List[int] = []
        try:
            for _ in range(spec.queues):
                qid = self.driver.create_io_queue_pair()
                qids.append(qid)
                self.ctrl.bind_namespace(qid, ns)
                if budget is not None:
                    self.arbiter.register(qid, budget)
                if self.monitor is not None:
                    self.monitor.observe_queue_pair(
                        qid, self.driver.queue(qid), self.ctrl)
        except Exception:
            for qid in qids:
                self._release_qid(qid)
            raise
        tenant = Tenant(spec=spec, nsid=ns, qids=qids, budget=budget)
        self._tenants[spec.name] = tenant
        for qid in qids:
            self._owner_of_qid[qid] = tenant
        return tenant

    def _release_qid(self, qid: int) -> None:
        """Return one queue to the rig (idempotent per layer)."""
        if self.arbiter is not None:
            self.arbiter.unregister(qid)
        self.ctrl.unbind_namespace(qid)
        self.driver.delete_io_queue_pair(qid)
        if self.monitor is not None:
            self.monitor.release_queue(qid)
        self._owner_of_qid.pop(qid, None)

    def teardown(self, tenant: Union[Tenant, str]) -> None:
        """Tear one tenant down: DELETE_SQ/DELETE_CQ every queue, drop
        the namespace binding and the QoS registration.

        Raises :class:`~repro.host.driver.DriverError` if the tenant
        still has commands in flight — drain its engines first.
        """
        if isinstance(tenant, str):
            tenant = self.tenant(tenant)
        if self._tenants.get(tenant.name) is not tenant:
            raise VirtError(f"tenant {tenant.name!r} is not provisioned")
        for qid in tenant.qids:
            self._release_qid(qid)
        del self._tenants[tenant.name]

    def teardown_all(self) -> None:
        for name in list(self._tenants):
            self.teardown(name)

    # -- per-tenant engine facade ------------------------------------------
    def engine(self, tenant: Union[Tenant, str], qd: int = 8,
               policy: str = "round_robin"):
        """An :class:`~repro.engine.IoEngine` pinned to the tenant's
        queues and namespace.  Tenant loads run as one
        :class:`~repro.engine.LoadGenerator` over a ``{stream_id:
        manager.engine(tenant, qd=concurrency)}`` mapping, which issues
        into every tenant's engine in the same poll loop."""
        from repro.engine import IoEngine

        if isinstance(tenant, str):
            tenant = self.tenant(tenant)
        eng = IoEngine(self.ssd, self.driver, queues=tenant.qids, qd=qd,
                       policy=policy, default_nsid=tenant.nsid)
        if self.monitor is not None:
            self.monitor.attach_engine(eng)
        return eng
