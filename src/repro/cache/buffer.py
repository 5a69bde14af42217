"""The host key-value cache (Section III-D "Caching").

Unlike a page cache, entries are variable-sized key-value pairs keyed by
(namespace id, key).  Misses issue ``Get`` to the SSD; transactional
commits write through with ``Put``; non-transactional writes may stay
dirty and are flushed by eviction.

A dirty entry stays cached, and readable, until the ``Put`` that writes
it back has committed, and it is marked clean only if no newer value
landed meanwhile.  Write-backs go out one at a time, so two of them for
one key commit in the order they were issued.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, List, Optional, Tuple

from repro.config import HostCosts
from repro.errors import ReproError
from repro.kaml import KamlSsd, PutItem
from repro.obs import TraceContext
from repro.sim import Environment, SimLock


class CacheCapacityError(ReproError):
    """A dirty value larger than the whole cache: it cannot be held."""


class _Entry:
    __slots__ = ("value", "size", "dirty")

    def __init__(self, value: Any, size: int, dirty: bool):
        self.value = value
        self.size = size
        self.dirty = dirty


class BufferManager:
    """LRU cache of key-value pairs with byte-granular capacity."""

    def __init__(
        self,
        env: Environment,
        ssd: KamlSsd,
        capacity_bytes: int,
        costs: HostCosts,
    ):
        if capacity_bytes <= 0:
            raise ValueError("cache capacity must be positive")
        self.env = env
        self.ssd = ssd
        self.capacity_bytes = capacity_bytes
        self.costs = costs
        self._entries: "OrderedDict[Tuple[int, int], _Entry]" = OrderedDict()
        self._used = 0
        self.metrics = ssd.metrics
        # Hot-path instruments, resolved once instead of per access.
        self._used_bytes_gauge = self.metrics.gauge("cache.used_bytes")
        self._writebacks_counter = self.metrics.counter("cache.writebacks")
        self._evictions_counter = self.metrics.counter("cache.evictions")
        self._read_counters: dict = {}
        self._writeback_lock = SimLock(env, name="cache.writeback")

    @property
    def used_bytes(self) -> int:
        return self._used

    def __contains__(self, cache_key: Tuple[int, int]) -> bool:
        return cache_key in self._entries

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def read(
        self, namespace_id: int, key: int, ctx: Optional[TraceContext] = None
    ) -> Any:
        """Return ``(value, size)`` or None; fills from the SSD on miss.

        ``ctx`` is the caller's trace: a ``cache.read`` span opens under
        it and a miss's ``Get`` joins it.  Without one the read itself is
        untraced, and a miss's ``Get`` traces itself only if the device's
        tracer is armed (the store always passes its armed request).
        """
        cache_span = ctx.begin(
            "cache.read", namespace=namespace_id, key=key
        ) if ctx is not None else None
        probe_us = self.costs.cache_probe_us
        self.env.try_advance(probe_us) or (yield self.env.timeout(probe_us))
        cache_key = (namespace_id, key)
        counters = self._read_counters.get(namespace_id) or self._new_read_counters(namespace_id)
        counters[0].inc()
        try:
            entry = self._entries.get(cache_key)
            if entry is not None:
                counters[1].inc()
                if cache_span is not None:
                    cache_span.tags["hit"] = True
                self._entries.move_to_end(cache_key)
                return entry.value, entry.size
            counters[2].inc()
            if cache_span is not None:
                cache_span.tags["hit"] = False
            result = yield from self.ssd.get_record(namespace_id, key, ctx=ctx)
            if result is None:
                return None
            value, size = result
            yield from self._insert(cache_key, value, size, dirty=False, fill=True)
            return value, size
        finally:
            if ctx is not None:
                ctx.finish(cache_span)

    def try_hit(self, namespace_id: int, key: int) -> Optional[Tuple[Any, int]]:
        """Zero-event form of an untraced :meth:`read` that hits::

            result = buffer.try_hit(nsid, key)
            if result is None:
                result = yield from buffer.read(nsid, key)

        Checks first that the entry is cached, then takes the probe cost
        inline (:meth:`Environment.try_advance`); a hit counts and
        refreshes LRU exactly as ``read`` would after its delay.  None (a
        miss, or the delay must go through the event heap) changes nothing.
        """
        cache_key = (namespace_id, key)
        entry = self._entries.get(cache_key)
        if entry is None or not self.env.try_advance(self.costs.cache_probe_us):
            return None
        counters = self._read_counters.get(namespace_id) or self._new_read_counters(namespace_id)
        counters[0].inc()
        counters[1].inc()
        self._entries.move_to_end(cache_key)
        return entry.value, entry.size

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def install_clean(self, namespace_id: int, key: int, value: Any, size: int) -> Any:
        """Place a just-persisted value in the cache (commit write-through)."""
        return self._insert((namespace_id, key), value, size, dirty=False)

    def install_dirty(self, namespace_id: int, key: int, value: Any, size: int) -> Any:
        """Write-back path: the value is newer than the SSD's copy."""
        return self._insert((namespace_id, key), value, size, dirty=True)

    def discard(self, namespace_id: int, key: int) -> None:
        entry = self._entries.pop((namespace_id, key), None)
        if entry is not None:
            self._used -= entry.size

    def flush(self) -> Any:
        """Write every dirty entry back to the SSD (one batched Put)."""
        dirty = [
            (cache_key, entry)
            for cache_key, entry in self._entries.items()
            if entry.dirty
        ]
        if dirty:
            yield from self._write_back(dirty)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _new_read_counters(self, namespace_id: int) -> Tuple[Any, Any, Any]:
        """Resolve a namespace's read/hit/miss counters on its first read."""
        counters = self._read_counters[namespace_id] = (
            self.metrics.counter("cache.reads", namespace=namespace_id),
            self.metrics.counter("cache.hits", namespace=namespace_id),
            self.metrics.counter("cache.misses", namespace=namespace_id),
        )
        return counters

    def _insert(
        self, cache_key: Tuple[int, int], value: Any, size: int, dirty: bool,
        fill: bool = False,
    ) -> Any:
        """Cache ``value``; ``fill`` marks a miss's SSD value, which never
        replaces a dirty entry written while the ``Get`` was in flight."""
        if size > self.capacity_bytes:
            if dirty:
                # The cache would be the only copy: refuse before touching it.
                raise CacheCapacityError(
                    f"dirty value of {size} B exceeds cache capacity {self.capacity_bytes} B"
                )
            # The SSD holds this value: serve it uncached, drop any stale copy.
            self.discard(*cache_key)
            self._used_bytes_gauge.set(self._used)
            return
        existing = self._entries.get(cache_key)
        if existing is not None:
            if fill and existing.dirty:
                return
            self._used -= existing.size
            existing.value = value
            existing.size = size
            existing.dirty = existing.dirty or dirty
            self._used += size
            self._entries.move_to_end(cache_key)
        else:
            self._entries[cache_key] = _Entry(value, size, dirty)
            self._used += size
        while self._used > self.capacity_bytes:
            yield from self._evict_one()
        self._used_bytes_gauge.set(self._used)
        copy_us = size / self.costs.copy_bytes_per_us
        self.env.try_advance(copy_us) or (yield self.env.timeout(copy_us))

    def _write_back(self, entries: List[Tuple[Tuple[int, int], _Entry]]) -> Any:
        """Put those of ``entries`` still cached and dirty in one batch;
        each turns clean unless a newer value replaced it meanwhile."""
        if not self._writeback_lock.try_acquire():
            yield self._writeback_lock.acquire()
        try:
            # Another write-back may have written or dropped some meanwhile.
            written = [
                (cache_key, entry, entry.value, entry.size)
                for cache_key, entry in entries
                if entry.dirty and self._entries.get(cache_key) is entry
            ]
            if not written:
                return
            yield from self.ssd.put([
                PutItem(cache_key[0], cache_key[1], value, size)
                for cache_key, _entry, value, size in written
            ])
            for _cache_key, entry, value, size in written:
                if entry.value is value and entry.size == size:
                    entry.dirty = False
            self._writebacks_counter.inc(len(written))
        finally:
            self._writeback_lock.release()

    def _evict_one(self) -> Any:
        victim_key, victim = next(iter(self._entries.items()))
        if victim.dirty:
            yield from self._write_back([(victim_key, victim)])
            if victim.dirty or self._entries.get(victim_key) is not victim:
                return  # re-dirtied (now most recent) or gone while the Put ran
        self._entries.pop(victim_key, None)
        self._used -= victim.size
        self._evictions_counter.inc()
        self._used_bytes_gauge.set(self._used)
