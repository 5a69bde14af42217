"""Slotted 8 KB pages: the baseline engine's record container."""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.errors import ReproError

#: Per-page header plus per-slot directory entry, in bytes.
PAGE_HEADER_BYTES = 32
SLOT_ENTRY_BYTES = 8


class PageFullError(ReproError):
    """No room for another record on this page."""


class SlottedPage:
    """Records packed into a fixed-size page with a slot directory.

    The slot index is stable for a record's lifetime (record ids are
    (page, slot) pairs), deletes leave holes that inserts reuse.
    """

    def __init__(self, page_size: int):
        self.page_size = page_size
        self._slots: List[Optional[Tuple[Any, int]]] = []  # (value, size) or None
        self._used = PAGE_HEADER_BYTES

    @property
    def free_bytes(self) -> int:
        return self.page_size - self._used

    @property
    def record_count(self) -> int:
        return sum(1 for slot in self._slots if slot is not None)

    def fits(self, size: int) -> bool:
        return size + SLOT_ENTRY_BYTES <= self.free_bytes

    def insert(self, value: Any, size: int) -> int:
        """Add a record; returns its slot number."""
        if size <= 0:
            raise ValueError("record size must be positive")
        if not self.fits(size):
            raise PageFullError(
                f"record of {size} B does not fit ({self.free_bytes} B free)"
            )
        self._used += size + SLOT_ENTRY_BYTES
        for slot, existing in enumerate(self._slots):
            if existing is None:
                self._slots[slot] = (value, size)
                return slot
        self._slots.append((value, size))
        return len(self._slots) - 1

    def read(self, slot: int) -> Tuple[Any, int]:
        record = self._slot(slot)
        if record is None:
            raise KeyError(f"slot {slot} is empty")
        return record

    def update(self, slot: int, value: Any, size: int) -> None:
        old = self._slot(slot)
        if old is None:
            raise KeyError(f"slot {slot} is empty")
        delta = size - old[1]
        if delta > self.free_bytes:
            raise PageFullError("grown record does not fit in place")
        self._used += delta
        self._slots[slot] = (value, size)

    def delete(self, slot: int) -> None:
        old = self._slot(slot)
        if old is None:
            raise KeyError(f"slot {slot} is empty")
        self._used -= old[1] + SLOT_ENTRY_BYTES
        self._slots[slot] = None

    def _slot(self, slot: int) -> Optional[Tuple[Any, int]]:
        if not 0 <= slot < len(self._slots):
            raise KeyError(f"slot {slot} out of range")
        return self._slots[slot]

    def snapshot(self) -> "SlottedPage":
        """A deep-enough copy for buffer-pool writeback images."""
        clone = SlottedPage(self.page_size)
        clone._slots = list(self._slots)
        clone._used = self._used
        return clone
