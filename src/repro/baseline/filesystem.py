"""A minimal extent-based file system over the NVMe block device.

This is the indirection layer conventional storage engines pay for and
KAML removes (Section III-A): file page -> logical block address ->
(inside the FTL) physical page.  Every call charges file-system CPU time
and ``fsync`` issues a durability barrier.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.blockdev import NvmeBlockDevice
from repro.errors import ReproError
from repro.sim import Environment


class FileError(ReproError):
    """File-system misuse: unknown file, out-of-range page, no space."""


class SimpleFilesystem:
    """Named files, each an extent list of device logical pages."""

    def __init__(self, env: Environment, device: NvmeBlockDevice):
        self.env = env
        self.device = device
        self.costs = device.config.firmware  # link costs live on the device
        self.host_costs = device.config.host
        self._files: Dict[str, List[int]] = {}
        self._next_lpn = 0
        self.fsyncs = 0

    @property
    def page_size(self) -> int:
        return self.device.logical_page_size

    def create(self, name: str, pages: int) -> None:
        """Preallocate a file of ``pages`` logical pages."""
        if name in self._files:
            raise FileError(f"file exists: {name!r}")
        if pages < 1:
            raise FileError("a file needs at least one page")
        if self._next_lpn + pages > self.device.logical_pages:
            raise FileError(
                f"no space for {name!r}: need {pages} pages, "
                f"{self.device.logical_pages - self._next_lpn} free"
            )
        self._files[name] = list(range(self._next_lpn, self._next_lpn + pages))
        self._next_lpn += pages

    def extend(self, name: str, pages: int) -> None:
        extent = self._extent(name)
        if self._next_lpn + pages > self.device.logical_pages:
            raise FileError(f"no space extending {name!r}")
        extent.extend(range(self._next_lpn, self._next_lpn + pages))
        self._next_lpn += pages

    def size_pages(self, name: str) -> int:
        return len(self._extent(name))

    def exists(self, name: str) -> bool:
        return name in self._files

    # -- timed I/O ----------------------------------------------------------

    def read_page(self, name: str, page_index: int, nbytes: int = None) -> Any:
        lpn = self._lpn(name, page_index)
        op_us = self.host_costs.fs_op_us
        self.env.try_advance(op_us) or (yield self.env.timeout(op_us))
        data = yield from self.device.read(lpn, nbytes or self.page_size)
        return data

    def write_page(self, name: str, page_index: int, data: Any, nbytes: int = None) -> Any:
        lpn = self._lpn(name, page_index)
        op_us = self.host_costs.fs_op_us
        self.env.try_advance(op_us) or (yield self.env.timeout(op_us))
        yield from self.device.write(lpn, data, nbytes or self.page_size)

    def fsync(self, name: str) -> Any:
        """Durability barrier: flush command plus device round trip."""
        self._extent(name)
        self.fsyncs += 1
        op_us = self.host_costs.fs_op_us
        self.env.try_advance(op_us) or (yield self.env.timeout(op_us))
        yield from self.device.link.command_overhead()
        fsync_us = self.host_costs.fsync_us
        self.env.try_advance(fsync_us) or (yield self.env.timeout(fsync_us))

    # -- internals -----------------------------------------------------------

    def _extent(self, name: str) -> List[int]:
        try:
            return self._files[name]
        except KeyError:
            raise FileError(f"unknown file: {name!r}") from None

    def _lpn(self, name: str, page_index: int) -> int:
        extent = self._extent(name)
        if not 0 <= page_index < len(extent):
            raise FileError(f"page {page_index} out of range for {name!r}")
        return extent[page_index]
