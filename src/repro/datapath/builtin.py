"""Built-in datapath registrations: each transfer method registers ONCE.

This module is the only place in the tree that knows the full method
roster.  ``repro.datapath.registry`` imports it lazily on first lookup;
everything downstream (driver ``submit``, ``make_methods``, the engine's
capability filter, the CLI's ``--method`` choices, the Figure-5 sweep)
derives from these registrations.  To add a method: write its codec /
decoder / factory, append one :func:`register` call here — done.

Registration order is meaningful: :func:`~repro.datapath.registry.specs`
and :func:`~repro.datapath.registry.method_names` preserve it, and the
Figure-5 benchmark sweeps ``figure5=True`` methods in this order.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.datapath import names
from repro.datapath.codecs import (
    FRAGMENT_WRITE_CODEC,
    INLINE_WRITE_CODEC,
    PRP_WRITE_CODEC,
    SGL_WRITE_CODEC,
    TAGGED_INLINE_WRITE_CODEC,
)
from repro.datapath.decoders import (
    INLINE_DECODER,
    PRP_DECODER,
    SGL_DECODER,
    TAGGED_INLINE_DECODER,
)
from repro.datapath.registry import register
from repro.datapath.spec import DatapathCaps, DatapathSpec

# Factories import the transfer classes inside the function body: the
# transfer package imports the driver, and pulling it in at module load
# would make the registry's first lookup heavier than it needs to be.


def _make_prp(ssd: Any, driver: Any, built: Dict[str, Any]) -> Any:
    from repro.transfer.prp_transfer import PrpTransfer

    return PrpTransfer(driver)


def _make_sgl(ssd: Any, driver: Any, built: Dict[str, Any]) -> Any:
    from repro.transfer.prp_transfer import SglTransfer

    return SglTransfer(driver)


def _make_bandslim(ssd: Any, driver: Any, built: Dict[str, Any]) -> Any:
    from repro.transfer.bandslim import BandSlimDeviceLayer, BandSlimTransfer

    return BandSlimTransfer(driver, BandSlimDeviceLayer(ssd))


def _make_byteexpress(ssd: Any, driver: Any, built: Dict[str, Any]) -> Any:
    from repro.transfer.byteexpress import ByteExpressTransfer

    return ByteExpressTransfer(driver)


def _make_byteexpress_tagged(ssd: Any, driver: Any,
                             built: Dict[str, Any]) -> Any:
    from repro.transfer.byteexpress import TaggedByteExpressTransfer

    return TaggedByteExpressTransfer(driver)


def _make_mmio(ssd: Any, driver: Any, built: Dict[str, Any]) -> Any:
    from repro.transfer.mmio_transfer import MmioByteInterface, MmioTransfer

    return MmioTransfer(ssd, MmioByteInterface(ssd))


def _make_pio_coherent(ssd: Any, driver: Any, built: Dict[str, Any]) -> Any:
    from repro.transfer.pio_transfer import (
        PioCoherentInterface,
        PioCoherentTransfer,
    )

    return PioCoherentTransfer(ssd, PioCoherentInterface(ssd))


def _make_hybrid(ssd: Any, driver: Any, built: Dict[str, Any]) -> Any:
    from repro.transfer.hybrid_transfer import HybridTransfer

    return HybridTransfer(built[names.BYTEEXPRESS], built[names.PRP])


def register_builtin_methods() -> None:
    """Register the paper's method roster (idempotence is the registry's
    job — :func:`~repro.datapath.registry._ensure_builtin` runs us once)."""
    register(DatapathSpec(
        name=names.PRP,
        caps=DatapathCaps(supports_read=True, engine_capable=True,
                          batchable=True, figure5=True),
        host_codec=PRP_WRITE_CODEC,
        device_decoder=PRP_DECODER,
        factory=_make_prp,
        summary="stock NVMe baseline: DMA via PRP page lists"))
    register(DatapathSpec(
        name=names.SGL,
        caps=DatapathCaps(supports_read=True),
        host_codec=SGL_WRITE_CODEC,
        device_decoder=SGL_DECODER,
        factory=_make_sgl,
        summary="scatter-gather lists: byte-granular data pointers (§5)"))
    register(DatapathSpec(
        name=names.BANDSLIM,
        caps=DatapathCaps(fragmented=True, engine_capable=True, figure5=True),
        host_codec=FRAGMENT_WRITE_CODEC,
        factory=_make_bandslim,
        summary="BandSlim-style fragmentation into command fields"))
    register(DatapathSpec(
        name=names.BYTEEXPRESS,
        caps=DatapathCaps(inline=True, engine_capable=True, batchable=True,
                          figure5=True),
        host_codec=INLINE_WRITE_CODEC,
        device_decoder=INLINE_DECODER,
        factory=_make_byteexpress,
        summary="the paper's inline transfer: payload chunks ride the SQ"))
    register(DatapathSpec(
        name=names.BYTEEXPRESS_TAGGED,
        caps=DatapathCaps(inline=True, tag_reassembly=True),
        host_codec=TAGGED_INLINE_WRITE_CODEC,
        device_decoder=TAGGED_INLINE_DECODER,
        factory=_make_byteexpress_tagged,
        summary="§3.3.2 future work: self-describing chunks, out-of-order "
                "reassembly (needs a MODE_TAGGED controller)"))
    register(DatapathSpec(
        name=names.MMIO,
        caps=DatapathCaps(bar_window=True),
        factory=_make_mmio,
        summary="naive comparison point: payload bytes through a BAR window"))
    register(DatapathSpec(
        name=names.PIO_COHERENT,
        caps=DatapathCaps(bar_window=True, figure5=True),
        factory=_make_pio_coherent,
        summary="coherent-link PIO: cacheline loads/stores, no doorbells, "
                "no DMA fetch, no CQEs (arXiv 2409.08141)"))
    register(DatapathSpec(
        name=names.HYBRID,
        caps=DatapathCaps(),
        factory=_make_hybrid,
        summary="size-policy router: inline small writes, PRP large ones"))
