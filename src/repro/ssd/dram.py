"""On-board DRAM with capacity accounting.

The paper's board carries 2 GB of DRAM that holds mapping tables, block
metadata, and staging buffers (Sections II-A, IV-C).  KAML's per-namespace
hash indices live here; opening a namespace whose index does not fit fails,
which is what forces the swap-to-flash policy in Section IV-C.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ReproError


class DramExhausted(ReproError):
    """An allocation did not fit in on-board DRAM."""


class OnboardDram:
    """Byte-granular allocator with named allocations."""

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError("DRAM capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._allocations: Dict[str, int] = {}

    @property
    def used_bytes(self) -> int:
        return sum(self._allocations.values())

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def allocate(self, tag: str, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if tag in self._allocations:
            raise ValueError(f"duplicate DRAM allocation tag: {tag!r}")
        if nbytes > self.free_bytes:
            raise DramExhausted(
                f"allocation {tag!r} of {nbytes} B exceeds free DRAM "
                f"({self.free_bytes} B of {self.capacity_bytes} B)"
            )
        self._allocations[tag] = nbytes

    def free(self, tag: str) -> int:
        """Release an allocation; returns the bytes freed."""
        try:
            return self._allocations.pop(tag)
        except KeyError:
            raise KeyError(f"unknown DRAM allocation tag: {tag!r}") from None

    def holds(self, tag: str) -> bool:
        return tag in self._allocations
