"""BandSlim: NVMe-CMD-based inline transfer (paper §3.2, Figure 3(c)).

The state-of-the-art comparator: payload fragments are embedded in the
fields of a *sequence* of vendor NVMe commands.  No SSD architecture
changes, but every fragment pays the full command cost — SQE build,
doorbell ring, 64 B fetch, firmware dispatch, and completion — which is
exactly the overhead ByteExpress's in-queue chunks avoid.  Sub-32-byte
payloads fit one command (matching the paper's observation); beyond that
the per-command cost grows linearly with the fragment count.

The host half is :class:`~repro.datapath.codecs.FragmentWriteCodec`,
which also owns the fragment wire encoding; this module keeps the device
half (fragment reassembly) and the benchmark-facing transfer object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.datapath import names as dp_names
from repro.datapath.codecs import (
    FragmentView,
    fragment_count,
    pack_fragment,
    unpack_fragment,
)
from repro.datapath.spec import DatapathSpec
from repro.host.driver import NvmeDriver
from repro.nvme.command import NvmeCommand
from repro.nvme.constants import IoOpcode, StatusCode, VendorOpcode
from repro.ssd.controller import CommandContext, CommandResult
from repro.ssd.device import OpenSsd
from repro.transfer.base import PassthruTransfer, TransferStats

__all__ = ["BandSlimDeviceLayer", "BandSlimTransfer", "FragmentView",
           "pack_fragment", "unpack_fragment"]


@dataclass
class _StreamState:
    buffer: bytearray
    expected_seq: int
    total_len: int


class BandSlimDeviceLayer:
    """Device firmware: fragment reassembly in front of the real handlers.

    This is the "dedicated software layer ... to manage fragment ordering"
    the paper charges BandSlim for; its per-fragment and per-payload costs
    come from the timing model.
    """

    def __init__(self, ssd: OpenSsd) -> None:
        self.ssd = ssd
        self._streams: Dict[int, _StreamState] = {}
        ssd.controller.register_handler(VendorOpcode.BANDSLIM_FRAG,
                                        self._on_fragment, data_phase=False)
        self.fragments = 0
        self.payloads = 0

    def _on_fragment(self, ctx: CommandContext) -> CommandResult:
        timing = self.ssd.config.timing
        self.ssd.clock.advance(timing.bandslim_frag_device_ns)
        try:
            view = unpack_fragment(ctx.cmd)
        except ValueError:
            return CommandResult(StatusCode.INVALID_FIELD)
        self.fragments += 1

        state = self._streams.get(view.stream)
        if state is None:
            state = _StreamState(bytearray(), 0, view.total_len)
            self._streams[view.stream] = state
        if view.seq != state.expected_seq:
            # Serialisation violated — drop the stream and fail.
            del self._streams[view.stream]
            return CommandResult(StatusCode.INVALID_FIELD)
        state.expected_seq += 1
        state.buffer += view.data

        if not view.last:
            # Intermediate fragments are acknowledged implicitly by the
            # final fragment's completion — BandSlim firmware behaviour.
            return CommandResult(suppress_cqe=True)
        del self._streams[view.stream]
        if len(state.buffer) != state.total_len:
            return CommandResult(StatusCode.DATA_TRANSFER_ERROR)
        self.ssd.clock.advance(timing.bandslim_task_device_ns)
        self.payloads += 1
        inner = CommandContext(
            cmd=NvmeCommand(opcode=view.target_opcode, cid=ctx.cmd.cid,
                            cdw10=view.target_cdw10, cdw12=state.total_len),
            qid=ctx.qid, data=bytes(state.buffer), transport=dp_names.TRANSPORT_BANDSLIM)
        return self.ssd.controller.dispatch_local(inner)


class BandSlimTransfer(PassthruTransfer):
    """Host half: one passthrough write through the fragment codec.

    ``commands`` reports the fragment count, or 1 when the circuit
    breaker sent the write down the PRP baseline instead.  The stats
    keep this method's name either way — the caller asked for BandSlim
    and the fallback is an implementation detail of degraded mode.
    """

    def __init__(self, driver: NvmeDriver, spec: DatapathSpec,
                 device_layer: BandSlimDeviceLayer) -> None:
        super().__init__(driver, spec)
        self.device_layer = device_layer

    def write(self, payload: bytes, opcode: int = IoOpcode.WRITE,
              cdw10: int = 0, cdw11: int = 0, nsid: int = 1,
              qid: Optional[int] = None) -> TransferStats:
        if not payload:
            raise ValueError("BandSlim transfer requires a payload")
        fallbacks = self.driver.inline_fallbacks
        stats = super().write(payload, opcode=opcode, cdw10=cdw10,
                              cdw11=cdw11, nsid=nsid, qid=qid)
        if self.driver.inline_fallbacks == fallbacks:
            stats.commands = fragment_count(len(payload))
        return stats
