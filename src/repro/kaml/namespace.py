"""Key-value namespaces: independent key spaces with their own mapping
tables and log assignments (Sections III-A, IV-B, IV-C)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.errors import ReproError
from repro.ftl.mapping import BucketedHashIndex, HashIndex, SortedIndex
from repro.kaml.mapping_policy import AllLogsPolicy


class NamespaceError(ReproError):
    """Namespace lifecycle or addressing failure."""


@dataclass
class NamespaceAttributes:
    """What ``CreateNamespace(attributes)`` accepts (Table I).

    ``index_structure`` realises Section IV-C's point that KAML "could
    even use different data structures ... to store the mapping tables":
    the bucketized table is the calibrated default; ``"open"`` selects the
    open-addressing table; ``"sorted"`` selects the ordered table that
    additionally supports range ``Scan`` at a log-time point-lookup cost.
    """

    expected_keys: int = 4096
    target_load: float = 0.75
    index_structure: str = "bucket"   # "bucket" | "open" | "sorted"
    log_policy: object = field(default_factory=AllLogsPolicy)

    def validate(self) -> None:
        if self.expected_keys < 1:
            raise NamespaceError("expected_keys must be >= 1")
        if not 0 < self.target_load < 1:
            raise NamespaceError("target_load must be in (0, 1)")
        if self.index_structure not in ("bucket", "open", "sorted"):
            raise NamespaceError(f"unknown index structure: {self.index_structure!r}")


IndexType = Union[BucketedHashIndex, HashIndex, SortedIndex]


class Namespace:
    """A live namespace: id, mapping table, and its set of logs."""

    def __init__(
        self,
        namespace_id: int,
        attributes: NamespaceAttributes,
        index: IndexType,
        log_ids: List[int],
    ):
        self.namespace_id = namespace_id
        self.attributes = attributes
        self.index: Optional[IndexType] = index
        self.log_ids = list(log_ids)
        self._next_log = 0
        #: False while the index is swapped out to flash (Section IV-C).
        self.resident = True

    @property
    def dram_tag(self) -> str:
        return f"namespace:{self.namespace_id}:index"

    def next_log_id(self) -> int:
        """Round-robin across the namespace's assigned logs."""
        if not self.log_ids:
            raise NamespaceError(
                f"namespace {self.namespace_id} has no logs assigned"
            )
        log_id = self.log_ids[self._next_log % len(self.log_ids)]
        self._next_log += 1
        return log_id

    def require_resident(self) -> None:
        if not self.resident or self.index is None:
            raise NamespaceError(
                f"namespace {self.namespace_id} index is not resident in DRAM"
            )

    @property
    def supports_range(self) -> bool:
        return hasattr(self.index, "range")

    @staticmethod
    def build_index(attributes: NamespaceAttributes, bucket_slots: int) -> IndexType:
        attributes.validate()
        if attributes.index_structure == "bucket":
            return BucketedHashIndex.sized_for(
                attributes.expected_keys,
                target_load=attributes.target_load,
                bucket_slots=bucket_slots,
            )
        if attributes.index_structure == "sorted":
            return SortedIndex.sized_for(
                attributes.expected_keys, target_load=attributes.target_load
            )
        return HashIndex.sized_for(
            attributes.expected_keys, target_load=attributes.target_load
        )
