"""Records, chunk math, and the per-page OOB boundary bitmap (Figure 4).

A flash page is divided into 64 fixed-size chunks.  Records are packed
back-to-back from chunk 0; the page's 8-byte OOB bitmap sets bit *i* when
chunk *i* is the **last** chunk of some record.  GC parses a page's records
from this bitmap alone (Section IV-B, IV-E).
"""

from __future__ import annotations

from typing import Any, Iterable, List, NamedTuple, Tuple

from repro.errors import ReproError
from repro.flash.address import PagePointer

#: Per-record on-flash header: 8 B key + 4 B namespace + 4 B length.
RECORD_HEADER_BYTES = 16


class RecordTooLargeError(ReproError):
    """A record (with header) does not fit in one flash page."""


class _Tombstone:
    """Singleton marker value for on-flash delete records."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<TOMBSTONE>"


#: On-flash value of a delete record.  Scan-based recovery treats a key
#: whose newest record carries this value as absent; GC keeps the
#: tombstone alive only while it is still the newest version of its key.
TOMBSTONE = _Tombstone()


class Record(NamedTuple):
    """A key-value pair as the firmware sees it.

    ``size`` is the declared value size in bytes; it drives all space and
    timing accounting.  ``value`` is carried for functional correctness and
    may be any Python object.  ``seq`` is the commit version stamped into
    the record header at phase 1: scan-based crash recovery ranks copies
    of the same key by it (last-writer-wins), so it must survive GC
    relocation unchanged.
    """

    namespace_id: int
    key: int
    value: Any
    size: int
    seq: int = 0

    def chunks(self, chunk_size: int) -> int:
        return chunks_for(self.size, chunk_size)


class RecordLocation(NamedTuple):
    """Where a record lives: page, first chunk, and chunk run length.

    This is the value type of KAML mapping tables (Section IV-C): key ->
    physical chunk address.  ``nchunks`` makes valid-byte accounting and GC
    possible without a second lookup.
    """

    page: PagePointer
    chunk: int
    nchunks: int

    @property
    def block_key(self) -> Tuple[int, int, int]:
        """``(channel, chip, block)``: the erase unit holding the record —
        the key of valid-byte accounting, read pins and GC's hooks."""
        return self.page[:3]


def chunks_for(value_size: int, chunk_size: int) -> int:
    """Chunks needed for a value plus its record header."""
    if value_size < 0:
        raise ValueError("value size must be non-negative")
    total = value_size + RECORD_HEADER_BYTES
    return max(1, -(-total // chunk_size))


def encode_bitmap(chunk_runs: Iterable[int]) -> int:
    """Build the OOB bitmap from consecutive record chunk-run lengths.

    ``encode_bitmap([2, 3])`` describes record A in chunks 0-1 and record B
    in chunks 2-4: bits 1 and 4 are set (the paper's Figure 4 example).
    """
    bitmap = 0
    position = -1
    for run in chunk_runs:
        if run < 1:
            raise ValueError(f"chunk run must be >= 1, got {run}")
        position += run
        if position >= 64:
            raise ValueError("records overflow the 64-chunk page")
        bitmap |= 1 << position
    return bitmap


def decode_bitmap(bitmap: int, chunks_per_page: int = 64) -> List[Tuple[int, int]]:
    """Recover ``(start_chunk, nchunks)`` runs from an OOB bitmap.

    Records pack from chunk 0 with no gaps, so each set bit terminates the
    run that began right after the previous set bit.  Trailing unused
    chunks (after the last set bit) belong to no record.
    """
    if bitmap < 0:
        raise ValueError("bitmap must be non-negative")
    if bitmap >> chunks_per_page:
        raise ValueError("bitmap has bits beyond the page's chunks")
    runs = []
    start = 0
    for position in range(chunks_per_page):
        if bitmap & (1 << position):
            runs.append((start, position - start + 1))
            start = position + 1
    return runs


class PageAssembly:
    """Accumulates records into one flash page's worth of chunks.

    The fill buffer each :class:`~repro.kaml.log.KamlLog` keeps per open
    page (Section IV-B): records land here (already durable in NVRAM) until
    the page is full enough to program.  Each record's chunk-run length is
    counted once, by the caller, and kept beside it.
    """

    def __init__(self, chunks_per_page: int):
        self.chunks_per_page = chunks_per_page
        self.records: List[Record] = []
        #: Chunk-run length of each record, in page order.
        self.runs: List[int] = []
        self.used_chunks = 0

    def add(self, record: Record, nchunks: int) -> int:
        """Append a record of ``nchunks`` chunks; returns its starting chunk."""
        if nchunks > self.chunks_per_page:
            raise RecordTooLargeError(
                f"record of {record.size} B needs {nchunks} chunks; page has "
                f"{self.chunks_per_page}"
            )
        start = self.used_chunks
        if start + nchunks > self.chunks_per_page:
            raise RecordTooLargeError("record does not fit in the open page")
        self.records.append(record)
        self.runs.append(nchunks)
        self.used_chunks = start + nchunks
        return start

    def bitmap(self) -> int:
        return encode_bitmap(self.runs)

    def chunk_runs(self) -> List[Tuple[int, int]]:
        """(start, nchunks) for each record, in page order."""
        runs = []
        start = 0
        for nchunks in self.runs:
            runs.append((start, nchunks))
            start += nchunks
        return runs
