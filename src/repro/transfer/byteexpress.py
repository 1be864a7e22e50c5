"""ByteExpress transfer (the paper's contribution, Figure 3(d)).

The payload rides the submission queue itself: command first, then 64-byte
chunks, one doorbell, one completion.  The queue-local variant is the
paper's implemented design; the tagged variant is its §3.3.2 future-work
relaxation (self-describing chunks, out-of-order reassembly across SQs).
"""

from __future__ import annotations

from repro.datapath import names as dp_names
from repro.transfer.base import PassthruTransfer


class ByteExpressTransfer(PassthruTransfer):
    name = dp_names.BYTEEXPRESS


class TaggedByteExpressTransfer(PassthruTransfer):
    """Out-of-order reassembly variant; requires a controller built in
    ``MODE_TAGGED``.  Chunk capacity drops to 56 B (8 B header), which the
    reassembly ablation quantifies against the queue-local design."""

    name = dp_names.BYTEEXPRESS_TAGGED
