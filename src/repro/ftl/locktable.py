"""A keyed lock table for firmware-internal synchronization.

Both FTLs need short critical sections keyed by logical page (baseline) or
key-index entry (KAML): reads must not race GC migration, and concurrent
``Put`` batches must serialize on common keys (Section IV-D phase 1).
Locks are created on demand and discarded when free, so the table stays
proportional to the number of *contended* keys.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable

from repro.sim import Environment, SimLock


class LockTable:
    """Exclusive locks keyed by an arbitrary hashable."""

    def __init__(self, env: Environment, name: str = "locktable"):
        self.env = env
        self.name = name
        self._locks: Dict[Hashable, SimLock] = {}
        self._metrics = None
        self._wait_us_histogram = None

    @property
    def metrics(self):
        """Optional :class:`~repro.obs.MetricsRegistry` set by the owner;
        records contended-acquire wait time per table."""
        return self._metrics

    @metrics.setter
    def metrics(self, registry) -> None:
        self._metrics = registry
        if registry is None:
            self._wait_us_histogram = None
        else:
            self._wait_us_histogram = registry.histogram(
                "locktable.wait_us", table=self.name
            )

    def __len__(self) -> int:
        return len(self._locks)

    def is_locked(self, key: Hashable) -> bool:
        lock = self._locks.get(key)
        return lock is not None and lock.locked

    def acquire(self, key: Hashable, owner: Any = None):
        """Timed acquire; drive with ``yield from``."""
        lock = self._locks.get(key)
        if lock is None:
            # The key stays in the instance name so the lock-order
            # sanitizer tells per-key orders apart.
            lock = SimLock(self.env, name=f"{self.name}[{key!r}]")
            self._locks[key] = lock
        queued = self.env.now
        if not lock.try_acquire(owner):
            yield lock.acquire(owner)
        if self._wait_us_histogram is not None and self.env.now > queued:
            self._wait_us_histogram.observe(self.env.now - queued)

    def release(self, key: Hashable) -> None:
        lock = self._locks.get(key)
        if lock is None:
            raise KeyError(f"release of unlocked key: {key!r}")
        lock.release()
        if not lock.locked and lock.waiters == 0:
            del self._locks[key]
