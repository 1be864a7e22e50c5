"""Host substrate: physical memory model and the NVMe driver.

``NvmeDriver`` is imported lazily (PEP 562): the driver sits above the
core/nvme layers, which themselves need :mod:`repro.host.memory`, and a
direct import here would close an import cycle.
"""

from repro.host.errors import CommandTimeoutError, DeviceError, DriverError
from repro.host.memory import HostMemory

__all__ = ["HostMemory", "NvmeDriver", "DriverError", "DeviceError",
           "CommandTimeoutError"]


def __getattr__(name):
    if name == "NvmeDriver":
        from repro.host import driver
        return getattr(driver, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
