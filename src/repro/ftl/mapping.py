"""Mapping structures: the conventional LBA array and KAML's hash index.

The contrast between these two is load-bearing for Figures 5 and 6:

* :class:`DirectMap` — a flat array.  Lookups and updates touch exactly one
  entry; the cost never changes.  This is why baseline block ``write`` wins
  for 4 KB *inserts* (Figure 5c).
* :class:`HashIndex` — open addressing with linear probing.  The number of
  slots inspected grows with load factor, which is why ``Get``'s advantage
  over ``read`` erodes as the table fills (Figure 5a).  Probe counts are
  returned to the caller so firmware can charge simulated time per probe.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Iterator, List, Optional, Tuple

from repro.errors import ReproError


class IndexFullError(ReproError):
    """The hash table has no free slot for a new key."""


def _mix64(key: int) -> int:
    """SplitMix64 finalizer: deterministic, well-spread 64-bit hash."""
    key &= 0xFFFFFFFFFFFFFFFF
    key = (key ^ (key >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    key = (key ^ (key >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return key ^ (key >> 31)


class DirectMap:
    """Flat LBA -> physical-location array (conventional FTL, Section IV-C)."""

    #: Bytes of on-board DRAM per entry (a packed 32-bit PPN).
    ENTRY_BYTES = 4

    def __init__(self, entries: int):
        if entries <= 0:
            raise ValueError("DirectMap needs at least one entry")
        self._slots: List[Optional[Any]] = [None] * entries

    def __len__(self) -> int:
        return len(self._slots)

    @property
    def memory_bytes(self) -> int:
        return len(self._slots) * self.ENTRY_BYTES

    def lookup(self, lpn: int) -> Optional[Any]:
        return self._slots[lpn]

    def store(self, lpn: int, location: Any) -> None:
        self._slots[lpn] = location

    def clear(self, lpn: int) -> None:
        self._slots[lpn] = None

    def mapped_count(self) -> int:
        return sum(1 for slot in self._slots if slot is not None)


_TOMBSTONE = object()


class HashIndex:
    """Open-addressing hash table from 64-bit keys to physical locations.

    Sized like the paper's example (Section IV-C): roughly 16 bytes of
    on-board DRAM per slot, so 100 M keys at 75 % load is ~2 GB.  Every
    operation reports how many slots it inspected.
    """

    SLOT_BYTES = 16

    def __init__(self, slots: int):
        if slots <= 0:
            raise ValueError("HashIndex needs at least one slot")
        self._slots: List[Any] = [None] * slots
        self._live = 0
        self._tombstones = 0

    def __len__(self) -> int:
        return self._live

    @property
    def slot_count(self) -> int:
        return len(self._slots)

    @property
    def load_factor(self) -> float:
        return self._live / len(self._slots)

    @property
    def memory_bytes(self) -> int:
        return len(self._slots) * self.SLOT_BYTES

    def _start(self, key: int) -> int:
        return _mix64(key) % len(self._slots)

    def lookup(self, key: int) -> Tuple[Optional[Any], int]:
        """Return ``(location, probes)``; location is None when absent."""
        slots = self._slots
        n = len(slots)
        index = self._start(key)
        for probes in range(1, n + 1):
            slot = slots[index]
            if slot is None:
                return None, probes
            if slot is not _TOMBSTONE and slot[0] == key:
                return slot[1], probes
            index = (index + 1) % n
        return None, n

    def insert(self, key: int, location: Any) -> Tuple[bool, int]:
        """Insert or update.  Returns ``(created, probes)``."""
        slots = self._slots
        n = len(slots)
        index = self._start(key)
        first_free = None
        for probes in range(1, n + 1):
            slot = slots[index]
            if slot is None:
                target = first_free if first_free is not None else index
                if slots[target] is _TOMBSTONE:
                    self._tombstones -= 1
                slots[target] = (key, location)
                self._live += 1
                return True, probes
            if slot is _TOMBSTONE:
                if first_free is None:
                    first_free = index
            elif slot[0] == key:
                slots[index] = (key, location)
                return False, probes
            index = (index + 1) % n
        if first_free is not None:
            slots[first_free] = (key, location)
            self._tombstones -= 1
            self._live += 1
            return True, n
        raise IndexFullError(f"hash index full ({self._live} live keys)")

    def delete(self, key: int) -> Tuple[bool, int]:
        """Remove a key.  Returns ``(removed, probes)``."""
        slots = self._slots
        n = len(slots)
        index = self._start(key)
        for probes in range(1, n + 1):
            slot = slots[index]
            if slot is None:
                return False, probes
            if slot is not _TOMBSTONE and slot[0] == key:
                slots[index] = _TOMBSTONE
                self._live -= 1
                self._tombstones += 1
                return True, probes
            index = (index + 1) % n
        return False, n

    def items(self) -> Iterator[Tuple[int, Any]]:
        for slot in self._slots:
            if slot is not None and slot is not _TOMBSTONE:
                yield slot

    def values(self) -> Iterator[Any]:
        for slot in self._slots:
            if slot is not None and slot is not _TOMBSTONE:
                yield slot[1]

    @classmethod
    def sized_for(cls, expected_keys: int, target_load: float = 0.75) -> "HashIndex":
        """A table that stays at/below ``target_load`` with ``expected_keys``."""
        if not 0 < target_load < 1:
            raise ValueError("target_load must be in (0, 1)")
        return cls(max(8, int(expected_keys / target_load) + 1))


class BucketedHashIndex:
    """Bucketized hash table: KAML's default mapping-table structure.

    Keys hash to a bucket of ``bucket_slots`` entries scanned linearly;
    full buckets spill into per-bucket overflow lists.  The number of
    entries scanned — which the caller converts into firmware time — grows
    roughly linearly with load factor, reproducing the paper's observation
    that "the firmware has to scan more mapping table entries" as the
    table fills (Figure 5a).

    Same 16 B/entry DRAM footprint as :class:`HashIndex` (Section IV-C).
    """

    SLOT_BYTES = 16

    def __init__(self, slots: int, bucket_slots: int = 8):
        if slots <= 0:
            raise ValueError("BucketedHashIndex needs at least one slot")
        if bucket_slots <= 0:
            raise ValueError("bucket_slots must be positive")
        self.bucket_slots = bucket_slots
        self.bucket_count = max(1, slots // bucket_slots)
        self._buckets: List[List[Tuple[int, Any]]] = [[] for _ in range(self.bucket_count)]
        self._live = 0

    def __len__(self) -> int:
        return self._live

    @property
    def slot_count(self) -> int:
        return self.bucket_count * self.bucket_slots

    @property
    def load_factor(self) -> float:
        return self._live / self.slot_count

    @property
    def memory_bytes(self) -> int:
        # Overflow entries cost DRAM too.
        overflow = max(0, self._live - self.slot_count)
        return (self.slot_count + overflow) * self.SLOT_BYTES

    def _bucket(self, key: int) -> List[Tuple[int, Any]]:
        return self._buckets[_mix64(key) % self.bucket_count]

    def lookup(self, key: int) -> Tuple[Optional[Any], int]:
        """Return ``(location, entries_scanned)``."""
        bucket = self._bucket(key)
        for scanned, (candidate, value) in enumerate(bucket, start=1):
            if candidate == key:
                return value, scanned
        return None, max(1, len(bucket))

    def insert(self, key: int, location: Any) -> Tuple[bool, int]:
        """Insert or update.  Returns ``(created, entries_scanned)``."""
        bucket = self._bucket(key)
        for scanned, (candidate, _value) in enumerate(bucket, start=1):
            if candidate == key:
                bucket[scanned - 1] = (key, location)
                return False, scanned
        bucket.append((key, location))
        self._live += 1
        return True, max(1, len(bucket))

    def delete(self, key: int) -> Tuple[bool, int]:
        bucket = self._bucket(key)
        for scanned, (candidate, _value) in enumerate(bucket, start=1):
            if candidate == key:
                bucket.pop(scanned - 1)
                self._live -= 1
                return True, scanned
        return False, max(1, len(bucket))

    def items(self) -> Iterator[Tuple[int, Any]]:
        for bucket in self._buckets:
            for entry in bucket:
                yield entry

    def values(self) -> Iterator[Any]:
        for bucket in self._buckets:
            for entry in bucket:
                yield entry[1]

    @classmethod
    def sized_for(
        cls, expected_keys: int, target_load: float = 0.75, bucket_slots: int = 8
    ) -> "BucketedHashIndex":
        if not 0 < target_load < 1:
            raise ValueError("target_load must be in (0, 1)")
        return cls(max(bucket_slots, int(expected_keys / target_load) + 1), bucket_slots)


class SortedIndex:
    """An ordered mapping table — the "tree instead of a hash table"
    option Section IV-C sketches for namespaces that need range queries.

    Implemented as a sorted array with binary search (the flat-ordered
    layout firmware actually favours over pointer-chasing trees).  Probe
    counts are ``log2`` of the population, so point lookups cost more
    than the hash tables but ``range`` becomes possible — the trade the
    application opts into per namespace.
    """

    SLOT_BYTES = 16

    def __init__(self, slots: int = 0):
        # ``slots`` kept for constructor symmetry; the array grows freely.
        self._keys: List[int] = []
        self._values: List[Any] = []
        self._reserved = max(0, slots)

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def slot_count(self) -> int:
        return max(self._reserved, len(self._keys))

    @property
    def load_factor(self) -> float:
        if self.slot_count == 0:
            return 0.0
        return len(self._keys) / self.slot_count

    @property
    def memory_bytes(self) -> int:
        return self.slot_count * self.SLOT_BYTES

    def _probes(self) -> int:
        return max(1, int(math.log2(len(self._keys) + 1)) + 1)

    def lookup(self, key: int) -> Tuple[Optional[Any], int]:
        probes = self._probes()
        index = bisect.bisect_left(self._keys, key)
        if index < len(self._keys) and self._keys[index] == key:
            return self._values[index], probes
        return None, probes

    def insert(self, key: int, location: Any) -> Tuple[bool, int]:
        probes = self._probes()
        index = bisect.bisect_left(self._keys, key)
        if index < len(self._keys) and self._keys[index] == key:
            self._values[index] = location
            return False, probes
        self._keys.insert(index, key)
        self._values.insert(index, location)
        return True, probes

    def delete(self, key: int) -> Tuple[bool, int]:
        probes = self._probes()
        index = bisect.bisect_left(self._keys, key)
        if index < len(self._keys) and self._keys[index] == key:
            self._keys.pop(index)
            self._values.pop(index)
            return True, probes
        return False, probes

    def items(self) -> Iterator[Tuple[int, Any]]:
        yield from zip(self._keys, self._values)

    def values(self) -> Iterator[Any]:
        yield from self._values

    def range(self, low: int, high: int) -> Iterator[Tuple[int, Any]]:
        """All (key, location) with ``low <= key <= high`` in key order."""
        start = bisect.bisect_left(self._keys, low)
        stop = bisect.bisect_right(self._keys, high)
        for index in range(start, stop):
            yield self._keys[index], self._values[index]

    @classmethod
    def sized_for(cls, expected_keys: int, target_load: float = 0.75) -> "SortedIndex":
        return cls(max(8, int(expected_keys / max(target_load, 0.01)) + 1))
