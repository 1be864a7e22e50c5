"""The datapath package: the static table of transfer methods.

:data:`SPECS` is the one ordered roster of the paper's transfer
methods.  Each :class:`~repro.datapath.spec.DatapathSpec` names a method,
declares its capability flags and carries its host codec (how the
driver encodes SQE + payload).  Every layer that needs to know "which
transfer methods exist" asks this table instead of keeping its own
literal tuple: the driver's generic ``submit()`` resolves host codecs
with :func:`resolve`, :func:`repro.transfer.make_methods` builds one
transfer object per entry, the CLI derives its ``--method`` choices and
the engine and the Figure-5 sweep their method sets from
:func:`method_names`.

Order is meaningful: :func:`method_names` preserves it, and the
Figure-5 benchmark sweeps ``figure5=True`` methods in this order.
Adding a method is one :data:`SPECS` entry plus one branch in
:func:`repro.transfer.make_methods`.
"""

from typing import Dict, Tuple

from repro.datapath import names
from repro.datapath.codecs import (
    FRAGMENT_WRITE_CODEC,
    INLINE_WRITE_CODEC,
    PRP_WRITE_CODEC,
    SGL_WRITE_CODEC,
    TAGGED_INLINE_WRITE_CODEC,
)
from repro.datapath.spec import DatapathCaps, DatapathSpec
from repro.host.errors import DriverError

SPECS: Tuple[DatapathSpec, ...] = (
    # Stock NVMe baseline: DMA via PRP page lists.
    DatapathSpec(names.PRP,
                 DatapathCaps(figure5=True), PRP_WRITE_CODEC),
    # Scatter-gather lists: byte-granular data pointers (§5).
    DatapathSpec(names.SGL, DatapathCaps(), SGL_WRITE_CODEC),
    # BandSlim-style fragmentation into command fields.
    DatapathSpec(names.BANDSLIM,
                 DatapathCaps(fragmented=True, figure5=True),
                 FRAGMENT_WRITE_CODEC),
    # The paper's inline transfer: payload chunks ride the SQ.
    DatapathSpec(names.BYTEEXPRESS,
                 DatapathCaps(inline=True, figure5=True),
                 INLINE_WRITE_CODEC),
    # §3.3.2 future work: self-describing chunks, out-of-order
    # reassembly (needs a MODE_TAGGED controller).
    DatapathSpec(names.BYTEEXPRESS_TAGGED,
                 DatapathCaps(inline=True, tag_reassembly=True),
                 TAGGED_INLINE_WRITE_CODEC),
    # Naive comparison point: payload bytes through a BAR window.
    DatapathSpec(names.MMIO, DatapathCaps(bar_window=True)),
    # Coherent-link PIO: cacheline loads/stores, no doorbells, no DMA
    # fetch, no CQEs (arXiv 2409.08141).
    DatapathSpec(names.PIO_COHERENT,
                 DatapathCaps(bar_window=True, figure5=True)),
    # Size-policy router: inline small writes, PRP large ones.
    DatapathSpec(names.HYBRID),
)

_BY_NAME: Dict[str, DatapathSpec] = {spec.name: spec for spec in SPECS}


class UnknownMethodError(DriverError):
    """Lookup of a transfer method the table does not list: a request
    that can never succeed, so a :class:`DriverError` (a ``ValueError``)."""


def resolve(name: str) -> DatapathSpec:
    """The spec listed under *name*; raises :class:`UnknownMethodError`."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise UnknownMethodError(
            f"unknown method {name!r}; known: "
            f"{', '.join(sorted(_BY_NAME))}") from None


def method_names(**caps: bool) -> Tuple[str, ...]:
    """Method names in table order, optionally filtered by capability
    flags.

    Keyword arguments name :class:`~repro.datapath.spec.DatapathCaps`
    fields and the required value, e.g. ``method_names(figure5=True)``
    or ``method_names(bar_window=False)``.  An unknown capability name raises
    ``AttributeError`` — a misspelt filter must not return everything.
    """
    return tuple(spec.name for spec in SPECS
                 if all(getattr(spec.caps, flag) == want
                        for flag, want in caps.items()))


__all__ = [
    "names",
    "DatapathCaps",
    "DatapathSpec",
    "SPECS",
    "UnknownMethodError",
    "resolve",
    "method_names",
]
