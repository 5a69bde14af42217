"""Unit + property tests for records, chunk math, and OOB bitmaps (Fig 4)."""

import pytest
from hypothesis import given, strategies as st

from repro.kaml import (
    Record,
    RecordTooLargeError,
    chunks_for,
    decode_bitmap,
    encode_bitmap,
)
from repro.kaml.record import RECORD_HEADER_BYTES, PageAssembly


# -- chunk math ---------------------------------------------------------------

def test_chunks_for_includes_header():
    # 112 B value + 16 B header = 128 B = exactly one 128 B chunk.
    assert chunks_for(112, 128) == 1
    assert chunks_for(113, 128) == 2


def test_chunks_for_zero_value_still_one_chunk():
    assert chunks_for(0, 128) == 1


def test_chunks_for_rejects_negative():
    with pytest.raises(ValueError):
        chunks_for(-1, 128)


def test_record_chunks():
    record = Record(namespace_id=1, key=7, value="v", size=512)
    assert record.chunks(128) == chunks_for(512, 128)


# -- bitmap (Figure 4) --------------------------------------------------------

def test_paper_figure4_example():
    """Record A: chunks 0-1, record B: chunks 2-4 -> bits 1 and 4."""
    bitmap = encode_bitmap([2, 3])
    assert bitmap == (1 << 1) | (1 << 4)
    assert decode_bitmap(bitmap) == [(0, 2), (2, 3)]


def test_single_record_single_chunk():
    bitmap = encode_bitmap([1])
    assert bitmap == 1
    assert decode_bitmap(bitmap) == [(0, 1)]


def test_full_page_of_one_chunk_records():
    bitmap = encode_bitmap([1] * 64)
    assert decode_bitmap(bitmap) == [(i, 1) for i in range(64)]


def test_encode_overflow_rejected():
    with pytest.raises(ValueError):
        encode_bitmap([32, 33])


def test_encode_zero_run_rejected():
    with pytest.raises(ValueError):
        encode_bitmap([0])


def test_decode_trailing_unused_chunks():
    bitmap = encode_bitmap([3])
    runs = decode_bitmap(bitmap)
    assert runs == [(0, 3)]  # chunks 3..63 belong to no record


def test_decode_rejects_out_of_range_bits():
    with pytest.raises(ValueError):
        decode_bitmap(1 << 64)
    with pytest.raises(ValueError):
        decode_bitmap(-1)


@given(st.lists(st.integers(1, 16), min_size=1, max_size=10))
def test_bitmap_roundtrip(runs):
    if sum(runs) > 64:
        runs = runs[:1]
    bitmap = encode_bitmap(runs)
    decoded = decode_bitmap(bitmap)
    assert [n for _start, n in decoded] == runs
    starts = [start for start, _n in decoded]
    assert starts == [sum(runs[:i]) for i in range(len(runs))]


# -- page assembly ------------------------------------------------------------

def make_record(key, size):
    return Record(namespace_id=1, key=key, value=f"v{key}", size=size)


def add(assembly, record):
    return assembly.add(record, record.chunks(128))


def test_assembly_packs_records_contiguously():
    assembly = PageAssembly(chunks_per_page=64)
    a = add(assembly, make_record(1, 112))   # 1 chunk
    b = add(assembly, make_record(2, 240))   # 2 chunks
    assert (a, b) == (0, 1)
    assert assembly.used_chunks == 3
    assert assembly.chunk_runs() == [(0, 1), (1, 2)]


def test_assembly_bitmap_matches_runs():
    assembly = PageAssembly(chunks_per_page=64)
    add(assembly, make_record(1, 240))
    add(assembly, make_record(2, 368))
    assert decode_bitmap(assembly.bitmap()) == assembly.chunk_runs()


def test_assembly_fits_and_rejects():
    assembly = PageAssembly(chunks_per_page=4)
    big = make_record(1, 128 * 4 - RECORD_HEADER_BYTES)
    assert add(assembly, big) == 0
    assert assembly.used_chunks == assembly.chunks_per_page
    with pytest.raises(RecordTooLargeError):
        add(assembly, make_record(2, 1))


def test_assembly_record_larger_than_page():
    assembly = PageAssembly(chunks_per_page=4)
    with pytest.raises(RecordTooLargeError):
        add(assembly, make_record(1, 128 * 10))


def test_assembly_empty_flags():
    assembly = PageAssembly(chunks_per_page=64)
    assert assembly.records == [] and assembly.runs == []
    assert assembly.used_chunks == 0
    add(assembly, make_record(1, 1))
    assert assembly.runs == [1]
