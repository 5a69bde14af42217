"""The host key-value cache (Section III-D "Caching").

Unlike a page cache, entries are variable-sized key-value pairs keyed by
(namespace id, key).  Misses issue ``Get`` to the SSD, and every write
reaches the cache only after its ``Put`` committed (write-through), so
each entry mirrors the SSD's copy and eviction simply drops the least
recently used ones.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from repro.config import HostCosts
from repro.kaml import KamlSsd
from repro.obs import TraceContext
from repro.sim import Environment


class _Entry:
    __slots__ = ("value", "size")

    def __init__(self, value: Any, size: int):
        self.value = value
        self.size = size


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
        #: Misses in flight per key; a write or delete of the key replaces
        #: the counter, which makes every miss holding the old one stale.
        self._misses: Dict[Tuple[int, int], List[int]] = {}
        self.metrics = ssd.metrics
        # Hot-path instruments, resolved once instead of per access.
        self._used_bytes_gauge = self.metrics.gauge("cache.used_bytes")
        self._evictions_counter = self.metrics.counter("cache.evictions")
        self._read_counters: dict = {}

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
            pending = self._misses.setdefault(cache_key, [0])
            pending[0] += 1
            try:
                result = yield from self.ssd.get_record(namespace_id, key, ctx=ctx)
            finally:
                pending[0] -= 1
                stale = self._misses.get(cache_key) is not pending
                if not stale and not pending[0]:
                    del self._misses[cache_key]
            if result is None:
                return None
            value, size = result
            yield from self._insert(cache_key, value, size, stale)
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
        cache_key = (namespace_id, key)
        if self._misses:
            self._misses.pop(cache_key, None)
        return self._insert(cache_key, value, size)

    def discard(self, namespace_id: int, key: int) -> None:
        cache_key = (namespace_id, key)
        if self._misses:
            self._misses.pop(cache_key, None)
        entry = self._entries.pop(cache_key, None)
        if entry is not None:
            self._used -= entry.size

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
        self, cache_key: Tuple[int, int], value: Any, size: int, stale: bool = False
    ) -> Any:
        """Cache ``value``.  A ``stale`` miss fill (a write or delete of the key
        reached the cache during its ``Get``) caches nothing: it only
        refreshes LRU on an entry that exists and pays the copy."""
        if size > self.capacity_bytes:
            # Serve it uncached and drop any stale copy.
            self.discard(*cache_key)
            self._used_bytes_gauge.set(self._used)
            return
        entries = self._entries
        existing = entries.get(cache_key)
        if existing is not None:
            if not stale:
                self._used += size - existing.size
                existing.value = value
                existing.size = size
            entries.move_to_end(cache_key)
        elif not stale:
            entries[cache_key] = _Entry(value, size)
            self._used += size
        while self._used > self.capacity_bytes:
            _victim_key, victim = entries.popitem(last=False)
            self._used -= victim.size
            self._evictions_counter.inc()
            self._used_bytes_gauge.set(self._used)
        self._used_bytes_gauge.set(self._used)
        copy_us = size / self.costs.copy_bytes_per_us
        self.env.try_advance(copy_us) or (yield self.env.timeout(copy_us))
