"""Shore-MT-style storage engine — the paper's OLTP/NoSQL comparator.

A conventional engine with the structure the paper attributes to
Shore-MT (Sections V-A, V-D-1): user data and logs live in files on a
file system over a block SSD; durability costs ARIES-style write-ahead
logging with a centralized log and synchronous flush at commit (the
engine models that cost; no figure crashes it, so it has no recovery
pass); isolation comes from 2PL at record or page granularity; a page
buffer pool caches 8 KB slotted pages; fuzzy checkpointing flushes dirty
pages in the background.

Every layer here is a cost KAML deletes: the file system indirection,
the stacked log (WAL on top of the FTL's log), and the page-granularity
buffering and locking.
"""

from repro.baseline.filesystem import SimpleFilesystem, FileError
from repro.baseline.slotted_page import SlottedPage, PageFullError
from repro.baseline.wal import WriteAheadLog
from repro.baseline.buffer_pool import BufferPool
from repro.baseline.heap_file import HeapFile, RecordId
from repro.baseline.engine import ShoreMtEngine, EngineError, LockGranularity

__all__ = [
    "SimpleFilesystem",
    "FileError",
    "SlottedPage",
    "PageFullError",
    "WriteAheadLog",
    "BufferPool",
    "HeapFile",
    "RecordId",
    "ShoreMtEngine",
    "EngineError",
    "LockGranularity",
]
