"""Unit tests for flash pages and blocks (state machines, not timing)."""

import pytest

from repro.config import FlashGeometry
from repro.flash import (
    BlockState,
    FlashBlock,
    FlashPage,
    PageState,
    ProgramError,
    ProgramOrderError,
    ReadError,
    EraseError,
    AddressError,
    WearOutError,
)


@pytest.fixture
def geometry():
    return FlashGeometry.small()


# -- page -------------------------------------------------------------------

def test_page_starts_erased():
    page = FlashPage()
    assert page.is_erased
    assert page.state is PageState.ERASED


def test_page_program_and_read():
    page = FlashPage()
    page.program("payload", oob=0b1010)
    data, oob = page.read()
    assert data == "payload"
    assert oob == 0b1010


def test_page_no_in_place_update():
    page = FlashPage()
    page.program("v1")
    with pytest.raises(ProgramError):
        page.program("v2")


def test_page_read_erased_raises():
    page = FlashPage()
    with pytest.raises(ReadError):
        page.read()


def test_page_erase_resets():
    page = FlashPage()
    page.program("x")
    page.erase()
    assert page.is_erased
    page.program("y")
    assert page.read() == ("y", None)


# -- block ------------------------------------------------------------------

def test_block_sequential_program_enforced(geometry):
    block = FlashBlock(geometry)
    block.program(0, "a")
    with pytest.raises(ProgramOrderError):
        block.program(2, "c")
    block.program(1, "b")
    assert block.programmed_pages == 2


def test_block_state_transitions(geometry):
    block = FlashBlock(geometry)
    assert block.state is BlockState.FREE
    block.program(0, "a")
    assert block.state is BlockState.OPEN
    for i in range(1, geometry.pages_per_block):
        block.program(i, i)
    assert block.state is BlockState.FULL
    with pytest.raises(ProgramError):
        block.program(0, "again")


def test_block_erase_resets_write_pointer(geometry):
    block = FlashBlock(geometry)
    block.program(0, "a")
    block.erase()
    assert block.state is BlockState.FREE
    assert block.write_pointer == 0
    assert block.erase_count == 1
    block.program(0, "fresh")


def test_block_page_index_bounds(geometry):
    block = FlashBlock(geometry)
    with pytest.raises(AddressError):
        block.program(geometry.pages_per_block, "x")
    with pytest.raises(AddressError):
        block.read(-1)


def test_block_wears_out():
    geometry = FlashGeometry(
        channels=1, chips_per_channel=1, blocks_per_chip=1,
        pages_per_block=2, erase_endurance=3,
    )
    block = FlashBlock(geometry)
    block.erase()
    block.erase()
    with pytest.raises(WearOutError):
        block.erase()
    assert block.is_bad
    with pytest.raises(WearOutError):
        block.program(0, "x")
    with pytest.raises(EraseError):
        block.erase()


def test_block_erase_count_monotonic(geometry):
    block = FlashBlock(geometry)
    for expected in range(1, 5):
        block.erase()
        assert block.erase_count == expected


# -- lazy pages -------------------------------------------------------------

def test_fresh_array_allocates_no_page(geometry):
    """Page objects exist from their first program, not from construction."""
    from repro.config import FlashTimings
    from repro.flash import FlashArray
    from repro.sim import Environment

    array = FlashArray(Environment(), geometry, FlashTimings())
    blocks = [block for _, _, chip in array.iter_chips() for block in chip.blocks]
    assert len(blocks) == geometry.total_chips * geometry.blocks_per_chip
    assert all(page is None for block in blocks for page in block.pages)
    block = blocks[0]
    assert block.peek_oob(0) is None
    block.program(0, "a", oob=0b1)
    assert isinstance(block.pages[0], FlashPage) and block.pages[1:] == [None] * (
        geometry.pages_per_block - 1
    )
    assert block.peek_oob(0) == 0b1


def test_block_program_erase_read_raises_as_before(geometry):
    block = FlashBlock(geometry)
    with pytest.raises(ReadError, match="read of an erased page"):
        block.read(0)
    block.program(0, "a", oob=7)
    assert block.read(0) == ("a", 7)
    with pytest.raises(ReadError, match="read of an erased page"):
        block.read(1)  # beyond the write pointer
    block.erase()
    assert block.pages == [None] * geometry.pages_per_block  # objects dropped
    with pytest.raises(ReadError, match="read of an erased page"):
        block.read(0)
