"""Physical addresses inside the flash array.

Two granularities exist:

* :class:`PagePointer` — what a conventional page FTL maps LBAs to.
* :class:`ChunkPointer` — what KAML mapping tables store: a page plus the
  first chunk of a record within that page (Section IV-B).
"""

from __future__ import annotations

from typing import NamedTuple


class PagePointer(NamedTuple):
    """Physical page address: (channel, chip, block, page)."""

    channel: int
    chip: int
    block: int
    page: int


class ChunkPointer(NamedTuple):
    """A record's physical location: page plus starting chunk (Fig 4)."""

    page: PagePointer
    chunk: int

    def __str__(self) -> str:  # pragma: no cover - debug aid
        c, h, b, p = self.page
        return f"ch{c}/chip{h}/blk{b}/pg{p}+{self.chunk}"
