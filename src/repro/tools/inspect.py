"""nvme-cli-style introspection: decode and pretty-print protocol state.

Debugging aids for people extending the stack: human-readable dumps of
commands (including ByteExpress, KV and BandSlim interpretations), queue
occupancy, controller registers, and the traffic ledger.
"""

from __future__ import annotations


from repro.core.inline_command import InlineEncodingError, inspect_command
from repro.host.driver import NvmeDriver
from repro.nvme.command import NvmeCommand
from repro.nvme.constants import (
    SQE_SIZE,
    AdminOpcode,
    IoOpcode,
    KvOpcode,
    VendorOpcode,
)
from repro.nvme.registers import (
    CSTS_READY,
    REG_CC,
    REG_CSTS,
    REG_VS,
)
from repro.ssd.device import OpenSsd

_IO_NAMES = {op.value: f"nvm.{op.name.lower()}" for op in IoOpcode}
_KV_NAMES = {op.value: f"kv.{op.name.lower()}" for op in KvOpcode}
_VENDOR_NAMES = {op.value: f"vendor.{op.name.lower()}" for op in VendorOpcode}
_ADMIN_NAMES = {op.value: f"admin.{op.name.lower()}" for op in AdminOpcode}


def opcode_name(opcode: int, admin: bool = False) -> str:
    """Best-effort symbolic name for an opcode.

    I/O opcodes are ambiguous across command sets (0x01 is both NVM Write
    and KV Store); all interpretations are shown, NVM first.
    """
    if admin:
        return _ADMIN_NAMES.get(opcode, f"admin.unknown({opcode:#04x})")
    names = [table[opcode] for table in (_IO_NAMES, _KV_NAMES, _VENDOR_NAMES)
             if opcode in table]
    if not names:
        return f"unknown({opcode:#04x})"
    return "|".join(names)


def describe_command(cmd: NvmeCommand, admin: bool = False) -> str:
    """One-paragraph human description of a command."""
    lines = [f"opcode : {opcode_name(cmd.opcode, admin)} "
             f"(cid={cmd.cid}, nsid={cmd.nsid}, psdt={cmd.psdt.name})"]
    try:
        info = inspect_command(cmd)
        if info.is_inline:
            lines.append(f"inline : ByteExpress payload of "
                         f"{info.payload_len} B in {info.chunks} chunk(s)"
                         + (f", tagged id={cmd.cdw3}" if cmd.cdw3 else ""))
    except InlineEncodingError:
        lines.append(f"inline : MALFORMED reserved field (cdw2={cmd.cdw2:#x})")
    if cmd.opcode == VendorOpcode.BANDSLIM_FRAG:
        from repro.datapath.codecs import unpack_fragment
        try:
            view = unpack_fragment(cmd)
            lines.append(f"frag   : stream={view.stream} seq={view.seq} "
                         f"{len(view.data)} B"
                         f"{' LAST' if view.last else ''} -> "
                         f"{opcode_name(view.target_opcode)}")
        except ValueError as exc:
            lines.append(f"frag   : MALFORMED ({exc})")
    if cmd.prp1 or cmd.prp2:
        lines.append(f"dptr   : prp1={cmd.prp1:#x} prp2={cmd.prp2:#x}")
    cdws = ", ".join(f"cdw{i}={getattr(cmd, f'cdw{i}'):#x}"
                     for i in (10, 11, 12, 13, 14, 15)
                     if getattr(cmd, f"cdw{i}"))
    if cdws:
        lines.append(f"cdws   : {cdws}")
    return "\n".join(lines)


def dump_queue(driver: NvmeDriver, qid: int, entries: int = 8) -> str:
    """Decode the most recent SQ entries of a queue (newest last)."""
    res = driver.queue(qid)
    sq = res.sq
    lines = [f"SQ{qid}: depth={sq.depth} head={sq.head} tail={sq.tail} "
             f"doorbell={sq.shadow_tail} free={sq.space()}"]
    count = min(entries, sq.depth)
    start = (sq.tail - count) % sq.depth
    for i in range(count):
        slot = (start + i) % sq.depth
        raw = driver.memory.read(sq.slot_addr(slot), SQE_SIZE)
        if raw == b"\x00" * SQE_SIZE:
            continue
        cmd = NvmeCommand.unpack(raw)
        lines.append(f"  slot {slot:4d}: "
                     + describe_command(cmd).replace("\n", "\n             "))
    return "\n".join(lines)


def dump_controller(ssd: OpenSsd) -> str:
    """Controller registers and firmware counters."""
    bar = ssd.bar
    ctl = ssd.controller
    vs = bar.read32(REG_VS)
    ready = bool(bar.read32(REG_CSTS) & CSTS_READY)
    lines = [
        f"NVMe {vs >> 16}.{(vs >> 8) & 0xFF}  "
        f"CC={bar.read32(REG_CC):#x}  CSTS.RDY={int(ready)}  "
        f"mode={ctl.mode}  byteexpress="
        f"{'on' if ctl.byteexpress_enabled else 'off'}",
        f"commands={ctl.commands_processed} "
        f"(admin={ctl.admin_commands_processed}, "
        f"inline payloads={ctl.inline_payloads}, "
        f"fetch errors={ctl.fetch_errors})",
    ]
    return "\n".join(lines)


def dump_traffic(ssd: OpenSsd) -> str:
    """The traffic ledger by category."""
    lines = [f"PCIe traffic: {ssd.traffic.total_bytes} B total "
             f"({ssd.traffic.downstream_bytes} down / "
             f"{ssd.traffic.upstream_bytes} up, "
             f"{ssd.traffic.tlp_count} TLPs)"]
    for category, nbytes in ssd.traffic.breakdown().items():
        lines.append(f"  {category:>14s}: {nbytes} B")
    return "\n".join(lines)
