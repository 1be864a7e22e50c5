"""Multi-tenant NVMe virtualization: namespace isolation, per-tenant
queue passthrough, and QoS arbitration (weighted round-robin + token
buckets) at the fetch unit.  Tenant loads run on
:class:`~repro.engine.LoadGenerator` with one engine per tenant."""

from repro.virt.qos import QosArbiter, QosParams, TenantBudget, TokenBucket
from repro.virt.tenant import Tenant, TenantManager, TenantSpec, VirtError

__all__ = [
    "QosArbiter",
    "QosParams",
    "Tenant",
    "TenantBudget",
    "TenantManager",
    "TenantSpec",
    "TokenBucket",
    "VirtError",
]
