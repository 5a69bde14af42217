"""Heap files: slotted pages plus the application-level key index.

Conventional engines must map application keys to record ids themselves
(Section III-A): here a hash index from key to RID = (page, slot).  The
engine charges index CPU time per probe; KAML's point is that this whole
layer (and the file system under it) collapses into the SSD's own
mapping table.
"""

from __future__ import annotations

from typing import Any, Dict, NamedTuple, Optional

from repro.baseline.buffer_pool import BufferPool
from repro.baseline.filesystem import SimpleFilesystem
from repro.baseline.slotted_page import PageFullError


class RecordId(NamedTuple):
    page_index: int
    slot: int


class HeapFile:
    """A table: one file of slotted pages + key -> RID index."""

    def __init__(
        self,
        fs: SimpleFilesystem,
        pool: BufferPool,
        name: str,
        pages: int,
    ):
        self.fs = fs
        self.pool = pool
        self.name = name
        fs.create(name, pages)
        self._index: Dict[int, RecordId] = {}
        self._fill_page = 0  # first page that might have room
        self._append_page = None  # high-water mark for claim_fresh_page

    def __len__(self) -> int:
        return len(self._index)

    @property
    def pages(self) -> int:
        return self.fs.size_pages(self.name)

    def rid_of(self, key: int) -> Optional[RecordId]:
        return self._index.get(key)

    # ------------------------------------------------------------------
    # Timed operations (drive with ``yield from``)
    # ------------------------------------------------------------------

    def insert(self, key: int, value: Any, size: int) -> Any:
        """Place a record and index it; returns its RID."""
        if key in self._index:
            raise KeyError(f"duplicate key {key} in {self.name!r}")
        env, level_us = self.fs.env, self.fs.host_costs.index_level_us
        env.try_advance(level_us) or (yield env.timeout(level_us))
        page_index = self._fill_page
        while True:
            if page_index >= self.pages:
                self.fs.extend(self.name, max(16, self.pages // 4))
            page = yield from self.pool.fetch(self.name, page_index)
            try:
                if page.fits(size):
                    slot = page.insert((key, value), size)
                    self.pool.unpin(self.name, page_index, dirty=True)
                    rid = RecordId(page_index, slot)
                    self._index[key] = rid
                    return rid
            except PageFullError:
                pass
            self.pool.unpin(self.name, page_index)
            if page_index == self._fill_page:
                self._fill_page += 1
            page_index += 1

    def read(self, key: int) -> Any:
        """Return ``(value, size, rid)`` or None."""
        env, level_us = self.fs.env, self.fs.host_costs.index_level_us
        env.try_advance(level_us) or (yield env.timeout(level_us))
        rid = self._index.get(key)
        if rid is None:
            return None
        page = yield from self.pool.fetch(self.name, rid.page_index)
        try:
            stored, size = page.read(rid.slot)
        finally:
            self.pool.unpin(self.name, rid.page_index)
        return stored[1], size, rid

    def update(self, key: int, value: Any, size: int) -> Any:
        """In-place update; returns the before image ``(value, size)``."""
        env, level_us = self.fs.env, self.fs.host_costs.index_level_us
        env.try_advance(level_us) or (yield env.timeout(level_us))
        rid = self._index.get(key)
        if rid is None:
            raise KeyError(f"unknown key {key} in {self.name!r}")
        page = yield from self.pool.fetch(self.name, rid.page_index)
        try:
            stored, old_size = page.read(rid.slot)
            page.update(rid.slot, (key, value), size)
        finally:
            self.pool.unpin(self.name, rid.page_index, dirty=True)
        return stored[1], old_size

    def delete(self, key: int) -> Any:
        """Remove a record; returns its before image or None."""
        env, level_us = self.fs.env, self.fs.host_costs.index_level_us
        env.try_advance(level_us) or (yield env.timeout(level_us))
        rid = self._index.pop(key, None)
        if rid is None:
            return None
        page = yield from self.pool.fetch(self.name, rid.page_index)
        try:
            stored, size = page.read(rid.slot)
            page.delete(rid.slot)
        finally:
            self.pool.unpin(self.name, rid.page_index, dirty=True)
        self._fill_page = min(self._fill_page, rid.page_index)
        return stored[1], size

    def page_of(self, key: int) -> Optional[int]:
        """Which page holds a key (for page-granularity locking)."""
        rid = self._index.get(key)
        return rid.page_index if rid else None

    def claim_fresh_page(self) -> int:
        """Hand out a never-used page (page-granularity insert path).

        Page-locking engines give each transaction private append pages so
        concurrent inserters do not fight over fill-page locks; the cost
        is internal fragmentation, which is part of why page granularity
        loses (Figure 9).
        """
        if self._append_page is None:
            self._append_page = self._fill_page
        page_index = max(self._append_page, self._fill_page)
        while page_index >= self.pages:
            self.fs.extend(self.name, max(16, self.pages // 4))
        self._append_page = page_index + 1
        return page_index

    def insert_at(self, page_index: int, key: int, value: Any, size: int) -> Any:
        """Insert into a specific (caller-locked) page; returns the RID or
        None when the page has no room."""
        if key in self._index:
            raise KeyError(f"duplicate key {key} in {self.name!r}")
        page = yield from self.pool.fetch(self.name, page_index)
        try:
            if not page.fits(size):
                return None
            slot = page.insert((key, value), size)
        finally:
            self.pool.unpin(self.name, page_index, dirty=True)
        rid = RecordId(page_index, slot)
        self._index[key] = rid
        return rid
