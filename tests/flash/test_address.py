"""Physical addresses, geometry validation and the array's bounds checks."""

import pytest

from repro.config import FlashGeometry
from repro.flash import AddressError, ChunkPointer, FlashArray, PagePointer
from repro.flash.array import FlashArray as _FlashArray
from repro.config import FlashTimings
from repro.sim import Environment


GEOMETRY = FlashGeometry.small()


def test_chunk_pointer_fields():
    chunk = ChunkPointer(PagePointer(0, 1, 2, 3), 7)
    assert chunk.page.block == 2
    assert chunk.chunk == 7


def test_geometry_validation_rejects_tiny_chunks():
    bad = FlashGeometry(page_size=8192, chunk_size=64)  # 128 chunks > 64-bit bitmap
    with pytest.raises(ValueError):
        bad.validate()


def test_geometry_validation_rejects_unaligned_chunks():
    bad = FlashGeometry(page_size=8192, chunk_size=100)
    with pytest.raises(ValueError):
        bad.validate()


def test_geometry_capacity_math():
    g = FlashGeometry.small()
    assert g.total_chips == 4
    assert g.total_pages == 4 * 8 * 8
    assert g.capacity_bytes == g.total_pages * g.page_size
    assert g.chunks_per_page == 64


def test_array_bounds_checks():
    env = Environment()
    array = _FlashArray(env, GEOMETRY, FlashTimings())
    with pytest.raises(AddressError):
        array.channel(GEOMETRY.channels)
    with pytest.raises(AddressError):
        array.chip(0, GEOMETRY.chips_per_channel)


def test_iter_targets_covers_all_chips():
    env = Environment()
    array = _FlashArray(env, GEOMETRY, FlashTimings())
    targets = list(array.iter_targets())
    assert len(targets) == GEOMETRY.total_chips
    assert len(set(targets)) == GEOMETRY.total_chips
