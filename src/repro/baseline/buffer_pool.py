"""Page-granular buffer pool over the file system.

Conventional-engine caching: fixed 8 KB frames, LRU replacement,
pin/unpin, dirty writeback, and a background checkpointer that flushes
dirty pages — the "copy dirty data out of the log ... can interfere with
foreground activity" effect the paper describes (Section V-D-1).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Tuple

from repro.baseline.filesystem import SimpleFilesystem
from repro.baseline.slotted_page import SlottedPage
from repro.sim import Environment, SimLock


@dataclass
class PoolStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    checkpoint_writes: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _Frame:
    __slots__ = ("page", "dirty", "pins")

    def __init__(self, page: SlottedPage):
        self.page = page
        self.dirty = False
        self.pins = 0


class BufferPool:
    """LRU pool of slotted pages keyed by (file, page index)."""

    def __init__(self, env: Environment, fs: SimpleFilesystem, capacity_pages: int):
        if capacity_pages < 1:
            raise ValueError("pool needs at least one frame")
        self.env = env
        self.fs = fs
        self.capacity_pages = capacity_pages
        self._frames: "OrderedDict[Tuple[str, int], _Frame]" = OrderedDict()
        self._io_lock = SimLock(env, name="pool.io")
        self.stats = PoolStats()
        self._checkpoint_running = False

    def __len__(self) -> int:
        return len(self._frames)

    # ------------------------------------------------------------------

    def fetch(self, file_name: str, page_index: int, pin: bool = True) -> Any:
        """Return the frame's :class:`SlottedPage`, reading it on a miss.

        Pages absent on disk (never written) materialise as empty pages.
        """
        probe_us = self.fs.host_costs.cache_probe_us
        self.env.try_advance(probe_us) or (yield self.env.timeout(probe_us))
        frame_key = (file_name, page_index)
        frame = self._frames.get(frame_key)
        if frame is not None:
            self.stats.hits += 1
            self._frames.move_to_end(frame_key)
            if pin:
                frame.pins += 1
            return frame.page
        self.stats.misses += 1
        data = yield from self.fs.read_page(file_name, page_index)
        page = data if isinstance(data, SlottedPage) else SlottedPage(self.fs.page_size)
        frame = _Frame(page)
        if pin:
            frame.pins += 1
        self._frames[frame_key] = frame
        yield from self._shrink()
        return page

    def unpin(self, file_name: str, page_index: int, dirty: bool = False) -> None:
        frame = self._frames.get((file_name, page_index))
        if frame is None:
            return
        frame.pins = max(0, frame.pins - 1)
        if dirty:
            frame.dirty = True

    def mark_dirty(self, file_name: str, page_index: int) -> None:
        frame = self._frames.get((file_name, page_index))
        if frame is not None:
            frame.dirty = True

    def flush_all(self) -> Any:
        """Write back every dirty frame (shutdown / test helper)."""
        for frame_key, frame in list(self._frames.items()):
            if frame.dirty:
                yield from self._write_back(frame_key, frame)

    def checkpoint(self) -> Any:
        """One fuzzy-checkpoint pass: write back currently dirty frames.

        Runs in the background; its device writes compete with foreground
        transactions for flash bandwidth.
        """
        if self._checkpoint_running:
            return
        self._checkpoint_running = True
        try:
            dirty = [
                (frame_key, frame)
                for frame_key, frame in list(self._frames.items())
                if frame.dirty
            ]
            for frame_key, frame in dirty:
                if frame.dirty:
                    yield from self._write_back(frame_key, frame)
                    self.stats.checkpoint_writes += 1
        finally:
            self._checkpoint_running = False

    def checkpointer(self, interval_us: float) -> Any:
        """Run as a process: periodic fuzzy checkpoints forever."""
        while True:
            self.env.try_advance(interval_us) or (yield self.env.timeout(interval_us))
            yield from self.checkpoint()

    # ------------------------------------------------------------------

    def _write_back(self, frame_key: Tuple[str, int], frame: _Frame) -> Any:
        frame.dirty = False
        snapshot = frame.page.snapshot()
        yield from self.fs.write_page(frame_key[0], frame_key[1], snapshot)
        self.stats.writebacks += 1

    def _shrink(self) -> Any:
        while len(self._frames) > self.capacity_pages:
            victim_key = None
            for frame_key, frame in self._frames.items():
                if frame.pins == 0:
                    victim_key = frame_key
                    break
            if victim_key is None:
                return  # everything pinned; allow temporary overcommit
            frame = self._frames.pop(victim_key)
            self.stats.evictions += 1
            if frame.dirty:
                yield from self._write_back(victim_key, frame)
