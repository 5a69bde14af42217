"""Namespace snapshots: frozen views through the mapping-table indirection.

The paper's introduction singles out snapshots as a service the key-value
indirection enables "for free": because the mapping table is the only
thing that names a record's physical location, freezing a copy of the
table freezes a consistent view of the namespace.  Old record versions
referenced by a snapshot are simply kept valid — GC will not reclaim
them until the snapshot is dropped.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ReproError
from repro.ftl.mapping import BucketedHashIndex, HashIndex, SortedIndex


class SnapshotError(ReproError):
    """Snapshot lifecycle misuse."""


class Snapshot:
    """A read-only, point-in-time clone of a namespace's mapping table."""

    def __init__(self, snapshot_id: int, namespace_id: int, index: Any):
        self.snapshot_id = snapshot_id
        self.namespace_id = namespace_id
        self.index = index

    @property
    def dram_tag(self) -> str:
        return f"snapshot:{self.snapshot_id}:index"


def clone_index(index: Any) -> Any:
    """A same-structure copy of a mapping table (firmware memcpy)."""
    live = len(index)
    if isinstance(index, BucketedHashIndex):
        clone = BucketedHashIndex(
            max(index.bucket_slots, index.slot_count), index.bucket_slots
        )
    elif isinstance(index, HashIndex):
        clone = HashIndex(index.slot_count)
    elif isinstance(index, SortedIndex):
        clone = SortedIndex(max(8, live))
    else:
        raise SnapshotError(f"cannot snapshot index type {type(index).__name__}")
    for key, location in index.items():
        clone.insert(key, location)
    return clone
