"""Persistence domains: which state survives a power cut, and until when.

ByteExpress moves payloads inline through SQEs, so "did my write
survive?" spans host DRAM, controller SRAM and NAND.  This module gives
every state-holding object in the stack an explicit answer, in the
style of Durable Queues (arXiv 2105.08706): state registers with a
:class:`DurabilityMap` under one of three domains —

``host_volatile``
    Host DRAM the OS loses at a crash: driver bookkeeping (CID tables,
    pinned pages), shadow-doorbell pages, the sparse host-memory model
    itself.
``device_volatile``
    Controller SRAM and device DRAM: SQ/CQ ring state, the firmware's
    per-queue producer state, the FTL mapping *cache*, the value log's
    active segment buffer.
``persistent``
    The NAND array and everything already flushed past its durable
    watermark.  Survives any cut.

A crash (:meth:`DurabilityMap.crash`) scrubs both volatile domains in
place and — when given a checkpoint image — restores the journaled
metadata (FTL mapping table, value-log watermark) that real firmware
re-reads from NAND at boot.  Checkpoints are taken at explicit flush
boundaries (:meth:`DurabilityMap.checkpoint`); the flush itself is
charged on the wire and the NAND channels like every other cost.

Registration is pure construction-time bookkeeping: plain dict inserts,
no clock, no traffic.  Crash-free runs pay nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Dict, List, Optional, Protocol, Tuple, cast,
                    runtime_checkable)

HOST_VOLATILE = "host_volatile"
DEVICE_VOLATILE = "device_volatile"
PERSISTENT = "persistent"

#: Every recognised domain, in scrub order (device state dies with the
#: controller before the host notices; the order only matters for
#: readability — scrubs are independent).
ALL_DOMAINS: Tuple[str, ...] = (DEVICE_VOLATILE, HOST_VOLATILE, PERSISTENT)

#: Domains whose registered state is lost at a crash cut.
VOLATILE_DOMAINS: Tuple[str, ...] = (DEVICE_VOLATILE, HOST_VOLATILE)


@runtime_checkable
class Persistable(Protocol):
    """What a state-holding object must offer to join a domain.

    ``scrub()`` wipes the state *in place* — identity (carved DRAM
    regions, NAND geometry, registered handlers) survives, contents do
    not.  Scrub-in-place is the load-bearing half of a power cut: reset
    paths that re-allocate instead of scrubbing lose device identity
    across a simulated controller reset.
    """

    def scrub(self) -> None: ...


class Checkpointed(Persistable, Protocol):
    """Journaled metadata, registered with ``checkpointed=True``.

    ``snapshot()`` returns the self-contained image firmware journals
    at a flush boundary; ``restore()`` is the boot-time re-read of that
    image after the cut's scrub.
    """

    def snapshot(self) -> object: ...

    def restore(self, state: object) -> None: ...


@dataclass
class _Entry:
    name: str
    domain: str
    obj: Persistable
    #: Checkpointed entries (``obj`` is :class:`Checkpointed`) model the
    #: journal: volatile at the cut, but re-readable from NAND afterwards
    #: — their last flush-boundary snapshot is restored during recovery.
    checkpointed: bool


class DurabilityMap:
    """The registry of who-holds-what across persistence domains.

    One map per simulated rig (``OpenSsd.durability``).  Registration
    replaces silently: recovery builds a fresh driver that re-registers
    its queues under the same names, exactly as a rebooted host would.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, _Entry] = {}

    # -- registration -----------------------------------------------------
    def register(self, name: str, domain: str, obj: Persistable,
                 checkpointed: bool = False) -> None:
        """Place *obj*'s state under *domain* as *name* (replaces)."""
        if domain not in ALL_DOMAINS:
            raise ValueError(f"unknown persistence domain {domain!r}; "
                             f"pick from {ALL_DOMAINS}")
        if checkpointed and domain == PERSISTENT:
            raise ValueError(f"{name!r}: persistent state survives every "
                             f"cut; checkpointing it is meaningless")
        self._entries[name] = _Entry(name, domain, obj, checkpointed)

    def unregister(self, name: str) -> None:
        """Drop *name* from the map (idempotent)."""
        self._entries.pop(name, None)

    # -- introspection ----------------------------------------------------
    def names(self, domain: Optional[str] = None) -> List[str]:
        """Registered names, optionally filtered to one domain."""
        return [e.name for e in self._entries.values()
                if domain is None or e.domain == domain]

    def domain_of(self, name: str) -> str:
        return self._entries[name].domain

    def get(self, name: str) -> Persistable:
        return self._entries[name].obj

    def is_checkpointed(self, name: str) -> bool:
        return self._entries[name].checkpointed

    # -- domain operations ------------------------------------------------
    def scrub(self, domain: str) -> List[str]:
        """Scrub every entry in *domain* in place; returns their names."""
        if domain not in ALL_DOMAINS:
            raise ValueError(f"unknown persistence domain {domain!r}")
        scrubbed = []
        for entry in self._entries.values():
            if entry.domain == domain:
                entry.obj.scrub()
                scrubbed.append(entry.name)
        return scrubbed

    def checkpoint(self) -> Dict[str, object]:
        """Snapshot the journaled metadata at a flush boundary.

        Returns ``{name: snapshot}`` for every checkpointed entry — the
        image recovery hands back to :meth:`crash`.  The caller is
        responsible for having flushed first (the snapshot records
        whatever is durable *now*).
        """
        return {e.name: cast(Checkpointed, e.obj).snapshot()
                for e in self._entries.values() if e.checkpointed}

    def crash(self,
              checkpoint: Optional[Dict[str, object]] = None) -> List[str]:
        """The power cut: volatile domains lose their state in place.

        Persistent entries are untouched.  When *checkpoint* (from
        :meth:`checkpoint`) is given, checkpointed entries are then
        restored to that flush-boundary image — the journaled-metadata
        re-read real firmware performs at boot.  Entries named in a
        stale checkpoint but no longer registered are skipped.  Returns
        the names scrubbed.
        """
        scrubbed = []
        for domain in VOLATILE_DOMAINS:
            scrubbed.extend(self.scrub(domain))
        if checkpoint:
            for name, image in checkpoint.items():
                entry = self._entries.get(name)
                if entry is not None and entry.checkpointed:
                    cast(Checkpointed, entry.obj).restore(image)
        return scrubbed
