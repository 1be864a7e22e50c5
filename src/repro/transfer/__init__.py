"""Transfer methods: every mechanism the paper compares, one interface.

Use :func:`make_methods` to build the full comparison suite over a fresh
device + driver pair — this is what the Figure 5/6/7 benchmarks sweep.
It is the one place that builds transfer objects, one per entry of the
static method table :data:`repro.datapath.SPECS`:

* every codec method (PRP, SGL, ByteExpress, tagged ByteExpress) is a
  :class:`PassthruTransfer` over its spec; BandSlim is the same plus its
  device-side fragment reassembly (:class:`BandSlimTransfer`);
* the two load/store comparators (MMIO, coherent PIO) are one
  :class:`BarWindowTransfer` each, told apart by a
  :class:`BarWindowProfile`;
* hybrid routes between the ByteExpress and PRP objects.
"""

from typing import Dict

from repro import datapath
from repro.datapath import names as dp_names
from repro.host.driver import NvmeDriver
from repro.ssd.context import MODE_TAGGED
from repro.ssd.device import OpenSsd
from repro.transfer.bandslim import (
    BandSlimDeviceLayer,
    BandSlimTransfer,
    FragmentView,
    pack_fragment,
    unpack_fragment,
)
from repro.transfer.bar_window import (
    BAR_WINDOW_PROFILES,
    BarWindowInterface,
    BarWindowProfile,
    BarWindowTransfer,
)
from repro.transfer.base import (
    AggregateStats,
    PassthruTransfer,
    TransferMethod,
    TransferStats,
)
from repro.transfer.hybrid_transfer import HybridTransfer


def make_methods(ssd: OpenSsd, driver: NvmeDriver,
                 include_mmio: bool = True) -> Dict[str, TransferMethod]:
    """Build the standard method suite bound to one device/driver pair.

    One transfer object per table entry, in table order, gated by its
    caps: ``bar_window`` methods only when *include_mmio* (the BAR byte
    window is an opt-in testbed feature), ``tag_reassembly`` methods
    only when the device controller actually runs in tagged mode (a
    queue-local controller would misparse self-describing chunks).
    """
    tagged = ssd.controller.mode == MODE_TAGGED
    methods: Dict[str, TransferMethod] = {}
    for spec in datapath.SPECS:
        caps = spec.caps
        if (caps.bar_window and not include_mmio
                or caps.tag_reassembly and not tagged):
            continue
        method: TransferMethod
        if caps.fragmented:
            method = BandSlimTransfer(driver, spec, BandSlimDeviceLayer(ssd))
        elif spec.host_codec is not None:
            method = PassthruTransfer(driver, spec)
        elif caps.bar_window:
            method = BarWindowTransfer(ssd, BAR_WINDOW_PROFILES[spec.name])
        elif spec.name == dp_names.HYBRID:
            method = HybridTransfer(methods[dp_names.BYTEEXPRESS],
                                    methods[dp_names.PRP])
        else:
            raise ValueError(f"no transfer object for {spec.name!r}")
        methods[spec.name] = method
    return methods


__all__ = [
    "TransferMethod",
    "TransferStats",
    "AggregateStats",
    "PassthruTransfer",
    "BandSlimTransfer",
    "BandSlimDeviceLayer",
    "pack_fragment",
    "unpack_fragment",
    "FragmentView",
    "BarWindowTransfer",
    "BarWindowInterface",
    "BarWindowProfile",
    "HybridTransfer",
    "make_methods",
]
