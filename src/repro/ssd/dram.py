"""Device DRAM buffer manager.

The Cosmos+ carries 1 GB of DRAM used for command staging, NAND page
buffers, the KV value log, and — for ByteExpress — the designated buffer
that inline payload chunks land in (paper §3.3.1: "a key-value log of
KV-SSDs, a workspace for filter processing in CSDs, or even a NAND page
buffer entry of normal block SSDs").

A named-region bump allocator is sufficient: firmware carves DRAM into
fixed regions at boot and never frees them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


class DramExhaustedError(Exception):
    """Raised when region allocation exceeds DRAM capacity."""


@dataclass
class DramRegion:
    """One named carve-out of device DRAM."""

    name: str
    base: int
    size: int
    _data: bytearray

    def write(self, offset: int, data: bytes) -> None:
        end = offset + len(data)
        if offset < 0 or end > self.size:
            raise ValueError(
                f"write [{offset}, {end}) outside region "
                f"'{self.name}' of {self.size} B")
        self._data[offset:end] = data

    def read(self, offset: int, nbytes: int) -> bytes:
        if offset < 0 or offset + nbytes > self.size:
            raise ValueError(
                f"read [{offset}, {offset + nbytes}) outside region "
                f"'{self.name}' of {self.size} B")
        return bytes(self._data[offset:offset + nbytes])

    # -- persistence (repro.durability) -----------------------------------
    def snapshot(self) -> object:
        return bytes(self._data)

    def restore(self, state: object) -> None:
        assert isinstance(state, bytes) and len(state) == self.size
        self._data[:] = state

    def scrub(self) -> None:
        """Zero the region in place; name/base/size identity survives."""
        self._data[:] = bytes(self.size)


class DeviceDram:
    """Device DRAM: capacity-checked named regions."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("DRAM capacity must be positive")
        self.capacity = capacity
        self._next = 0
        self._regions: Dict[str, DramRegion] = {}

    def carve(self, name: str, size: int) -> DramRegion:
        """Allocate a named region; names are unique."""
        if size <= 0:
            raise ValueError("region size must be positive")
        if name in self._regions:
            raise ValueError(f"region '{name}' already exists")
        if self._next + size > self.capacity:
            raise DramExhaustedError(
                f"cannot carve {size} B for '{name}': "
                f"{self.capacity - self._next} B free")
        region = DramRegion(name, self._next, size, bytearray(size))
        self._next += size
        self._regions[name] = region
        return region

    def region(self, name: str) -> DramRegion:
        return self._regions[name]

    @property
    def used(self) -> int:
        return self._next

    @property
    def free(self) -> int:
        return self.capacity - self._next

    # -- persistence (repro.durability) -----------------------------------
    def snapshot(self) -> object:
        return {name: region.snapshot()
                for name, region in self._regions.items()}

    def restore(self, state: object) -> None:
        assert isinstance(state, dict)
        for name, image in state.items():
            self._regions[name].restore(image)

    def scrub(self) -> None:
        """Zero every carved region in place.

        The carve map survives — firmware re-finds its regions by name
        after a reset instead of re-carving (which would raise on the
        duplicate name and leak capacity).
        """
        for region in self._regions.values():
            region.scrub()
