"""Key-value namespaces: independent key spaces with their own mapping
tables and log assignments (Sections III-A, IV-B, IV-C)."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, List, Optional, Sequence, Union

from repro.errors import ReproError
from repro.ftl.mapping import BucketedHashIndex, HashIndex, SortedIndex
from repro.kaml.mapping_policy import AllLogsPolicy


class NamespaceError(ReproError):
    """Namespace lifecycle or addressing failure."""


#: Weight of the newest inter-arrival gap in a namespace's rate estimate.
#: 1/8 (TCP's smoothed-RTT gain): smooth enough that one short gap in a
#: trickle does not re-open a wide stripe, quick enough that a burst
#: turning into a trickle has narrowed within a handful of records.
GAP_EWMA_WEIGHT = 1 / 8
#: How many times per flush timeout each open page must be fed.  Feeding
#: ``width`` pages in turn feeds each one every ``width * mean_gap``;
#: holding that to a quarter of the timeout leaves room for gaps four
#: times the mean before a page being filled is padded as quiet.
FEEDS_PER_TIMEOUT = 4


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


def _series(kind: str, name: str) -> cached_property:
    """A namespace's own series of ``name``: resolved on first use (an
    eager zero-valued series would show in every registry export) and
    kept on the namespace, so it dies with it."""
    return cached_property(
        lambda self: getattr(self._metrics, kind)(name, namespace=self.namespace_id)
    )


class Namespace:
    """A live namespace: id, mapping table, and its set of logs."""

    def __init__(
        self,
        namespace_id: int,
        attributes: NamespaceAttributes,
        index: IndexType,
        log_ids: List[int],
        metrics: Any = None,
    ):
        self.namespace_id = namespace_id
        self._metrics = metrics
        self.attributes = attributes
        self.index: Optional[IndexType] = index
        self.log_ids = list(log_ids)
        self._next_log = 0
        #: Logs whose open host page this namespace is filling, least
        #: recently fed first, and the arrival-rate estimate that bounds
        #: how many of them there may be (:meth:`pick_log`).
        self._feeding: List[int] = []
        self._mean_gap_us = 0.0
        self._last_arrival_us: Optional[float] = None
        #: False while the index is swapped out to flash (Section IV-C).
        self.resident = True

    @property
    def dram_tag(self) -> str:
        return f"namespace:{self.namespace_id}:index"

    gets_counter = _series("counter", "kaml.ssd.gets")
    staged_hits_counter = _series("counter", "kaml.ssd.get_staged_hits")
    put_bytes_counter = _series("counter", "kaml.put.bytes")
    deletes_counter = _series("counter", "kaml.ssd.deletes")

    def next_log_id(self) -> int:
        """Round-robin across the namespace's assigned logs: the rotation
        :meth:`pick_log` opens new pages in."""
        if not self.log_ids:
            raise NamespaceError(
                f"namespace {self.namespace_id} has no logs assigned"
            )
        log_id = self.log_ids[self._next_log % len(self.log_ids)]
        self._next_log += 1
        return log_id

    def retarget(self, log_ids: Sequence[int]) -> None:
        """Swap the assigned logs; steering state described the old set."""
        self.log_ids = list(log_ids)
        self._feeding.clear()
        self._mean_gap_us = 0.0
        self._last_arrival_us = None

    def stripe_width(self, hold_us: float) -> int:
        """How many open pages the current arrival rate can keep fed."""
        width = len(self.log_ids)
        if FEEDS_PER_TIMEOUT * self._mean_gap_us * width > hold_us:
            width = max(1, int(hold_us / (FEEDS_PER_TIMEOUT * self._mean_gap_us)))
        return width

    def pick_log(self, logs: Sequence[Any], nchunks: int, now: float, hold_us: float) -> Any:
        """The log whose open page a host record of ``nchunks`` joins.

        Records that arrive together share a page: the namespace stripes
        only as wide as its arrival rate can keep filling before the
        logs' ``hold_us`` quiescence timer pads a page.  A burst spreads
        over every assigned log; a trickle collapses onto one page.  A
        new namespace starts wide and narrows on evidence.  Call at
        staging time — the answer depends on what is open *now*.
        """
        if self._last_arrival_us is not None:
            gap_us = now - self._last_arrival_us
            self._mean_gap_us += GAP_EWMA_WEIGHT * (gap_us - self._mean_gap_us)
        self._last_arrival_us = now
        width = self.stripe_width(hold_us)
        # At width, join the least recently fed page that can take the
        # record; launched pages (or pages a crash emptied) drop out as the
        # scan reaches them.  If none can, only the fullest page leaves:
        # its padding costs least.  Narrowing sheds nothing: the estimate
        # is noisy, and a page fed too rarely leaves by the timer.
        feeding = self._feeding
        if len(feeding) >= width:
            fullest, least_room = None, nchunks
            for log_id in list(feeding):
                room = logs[log_id].open_room()
                if room >= nchunks:
                    feeding.remove(log_id)
                    feeding.append(log_id)
                    return logs[log_id]
                if not room:
                    feeding.remove(log_id)
                elif room < least_room:
                    fullest, least_room = log_id, room
            if fullest is not None and len(feeding) >= width:
                feeding.remove(fullest)
        # Below width, or nothing fits: the next rotation log not fed.
        log_id = self.next_log_id()
        while log_id in feeding:
            log_id = self.next_log_id()
        feeding.append(log_id)
        return logs[log_id]

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
