"""Stock NVMe PRP transfer (the paper's baseline, Figure 3(a)).

Host stages the payload in page-aligned memory, builds PRP entries, and the
device pulls whole 4 KB pages — the source of the >130× traffic
amplification for 32-byte payloads (Figure 1(c))."""

from __future__ import annotations

from repro.datapath import names as dp_names
from repro.transfer.base import PassthruTransfer


class PrpTransfer(PassthruTransfer):
    name = dp_names.PRP


class SglTransfer(PassthruTransfer):
    """SGL data-block transfer (§5 discussion): byte-granular DMA, but the
    command still carries a descriptor the controller must parse before it
    can program the engine."""

    name = dp_names.SGL
