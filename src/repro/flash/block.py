"""A flash erase block: the unit of erasure and wear."""

from __future__ import annotations

import enum
from typing import Any, List, Optional, Tuple

from repro.config import FlashGeometry
from repro.flash.errors import (
    AddressError,
    EraseError,
    ProgramError,
    ProgramOrderError,
    ReadError,
    WearOutError,
)
from repro.flash.page import FlashPage


class BlockState(enum.Enum):
    FREE = "free"          # fully erased, nothing programmed yet
    OPEN = "open"          # some pages programmed, more remain
    FULL = "full"          # every page programmed
    BAD = "bad"            # exceeded erase endurance


class FlashBlock:
    """Enforces sequential programming and erase endurance (Section II-A)."""

    def __init__(self, geometry: FlashGeometry):
        self.geometry = geometry
        # A page object exists from its first program to the next erase;
        # an erased page is ``None`` (a default device has 262,144 pages
        # and most are never written).
        self.pages: List[Optional[FlashPage]] = [None] * geometry.pages_per_block
        self.erase_count = 0
        self.write_pointer = 0  # next page index to program
        self.state = BlockState.FREE

    @property
    def is_bad(self) -> bool:
        return self.state is BlockState.BAD

    @property
    def is_full(self) -> bool:
        return self.state is BlockState.FULL

    @property
    def programmed_pages(self) -> int:
        return self.write_pointer

    def _check_page_index(self, page_index: int) -> None:
        if not 0 <= page_index < len(self.pages):
            raise AddressError(f"page index {page_index} out of range")

    def program(self, page_index: int, data: Any, oob: Any = None) -> None:
        self._check_page_index(page_index)
        if self.state is BlockState.BAD:
            raise WearOutError("program on a worn-out block")
        if self.state is BlockState.FULL:
            raise ProgramError("program on a full block")
        if page_index != self.write_pointer:
            raise ProgramOrderError(
                f"pages must be programmed sequentially: expected "
                f"{self.write_pointer}, got {page_index}"
            )
        self.pages[page_index] = page = FlashPage()
        page.program(data, oob)
        self.write_pointer += 1
        self.state = (
            BlockState.FULL if self.write_pointer == len(self.pages) else BlockState.OPEN
        )

    def read(self, page_index: int) -> Tuple[Any, Any]:
        self._check_page_index(page_index)
        page = self.pages[page_index]
        if page is None:
            raise ReadError("read of an erased page")
        return page.read()

    def peek_oob(self, page_index: int) -> Any:
        """:meth:`FlashPage.peek_oob` of a page, ``None`` while erased."""
        page = self.pages[page_index]
        return None if page is None else page.peek_oob()

    def erase(self) -> None:
        if self.state is BlockState.BAD:
            raise EraseError("erase of a bad block")
        self.erase_count += 1
        self.pages = [None] * len(self.pages)
        self.write_pointer = 0
        if self.erase_count >= self.geometry.erase_endurance:
            self.state = BlockState.BAD
            raise WearOutError(
                f"block exceeded erase endurance ({self.geometry.erase_endurance})"
            )
        self.state = BlockState.FREE
