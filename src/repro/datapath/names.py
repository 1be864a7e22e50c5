"""Canonical transfer-method and transport identifiers.

Every place in the stack that used to spell ``"prp"`` / ``"byteexpress"``
/ ... as a bare string literal imports these constants instead.  The
VER106 lint rule (:mod:`repro.verify.lint`) enforces this: a quoted
transfer-method literal outside ``repro/datapath/`` and the test tree is
a finding, so method identity can never drift across layers again.

Two vocabularies live here:

* **method names** — what the user/benchmark selects (``prp``, ``sgl``,
  ``bandslim``, ``byteexpress``, ``byteexpress-tagged``, ``mmio``,
  ``hybrid``): keys of the :data:`repro.datapath.SPECS` table;
* **transports** — how a payload actually arrived at the device
  (``prp``, ``sgl``, ``inline``, ``mmio``, ``bandslim``): the
  ``CommandContext.transport`` tag firmware handlers see.  Layered
  methods map onto primitive transports (hybrid → inline or prp;
  byteexpress-tagged → inline).
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

PRP: str = "prp"
SGL: str = "sgl"
BYTEEXPRESS: str = "byteexpress"
BYTEEXPRESS_TAGGED: str = "byteexpress-tagged"
BANDSLIM: str = "bandslim"
MMIO: str = "mmio"
PIO_COHERENT: str = "pio_coherent"
HYBRID: str = "hybrid"

#: Methods a read's device→host data return can take.
READ_METHODS: Tuple[str, ...] = (PRP, SGL)

#: Transport tags (``CommandContext.transport``).  PRP/SGL/MMIO/BandSlim
#: transports share their method's spelling; the submission-queue inline
#: transport is shared by both ByteExpress variants.
TRANSPORT_INLINE: str = "inline"
TRANSPORT_PRP: str = PRP
TRANSPORT_SGL: str = SGL
TRANSPORT_MMIO: str = MMIO
TRANSPORT_PIO: str = "pio"
TRANSPORT_BANDSLIM: str = BANDSLIM

#: The literal spellings VER106 hunts for outside this package.  Kept
#: deliberately to the *method* vocabulary — generic words such as
#: ``"inline"`` collide with too much unrelated prose to lint on.
METHOD_LITERALS: FrozenSet[str] = frozenset({
    PRP, SGL, BYTEEXPRESS, BYTEEXPRESS_TAGGED, BANDSLIM, MMIO,
    PIO_COHERENT, HYBRID,
})
