"""KAML: the key-addressable, multi-log SSD (the paper's contribution).

The firmware manages flash as per-target append logs, stores variable-sized
records in chunked pages with OOB boundary bitmaps (Figure 4), maps 64-bit
keys straight to physical chunk addresses through per-namespace hash
indices, and executes atomic multi-record ``Put`` with a two-phase commit
protocol staged through battery-backed NVRAM (Section IV).
"""

from repro.kaml.record import (
    TOMBSTONE,
    Record,
    RecordLocation,
    RecordTooLargeError,
    encode_bitmap,
    decode_bitmap,
    chunks_for,
)
from repro.kaml.log import KamlLog
from repro.kaml.namespace import Namespace, NamespaceAttributes, NamespaceError
from repro.kaml.mapping_policy import AllLogsPolicy, DedicatedLogsPolicy, ExplicitLogsPolicy
from repro.kaml.snapshot import Snapshot, SnapshotError
from repro.kaml.put import KamlError, PutItem, StagedBatch
from repro.kaml.ssd import KamlSsd

__all__ = [
    "TOMBSTONE",
    "Record",
    "RecordLocation",
    "RecordTooLargeError",
    "encode_bitmap",
    "decode_bitmap",
    "chunks_for",
    "KamlLog",
    "Namespace",
    "NamespaceAttributes",
    "NamespaceError",
    "AllLogsPolicy",
    "DedicatedLogsPolicy",
    "ExplicitLogsPolicy",
    "Snapshot",
    "SnapshotError",
    "KamlSsd",
    "KamlError",
    "PutItem",
    "StagedBatch",
]
