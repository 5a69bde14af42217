"""SS2PL lock manager with configurable granularity (Sections III-C, III-D).

Transactions acquire shared/exclusive locks before touching key-value
pairs and hold them until commit or abort (strong strict two-phase
locking, [14] in the paper).  The unit of locking is configurable:

* ``records_per_lock=1`` — the record-level locking KAML is built for;
* ``records_per_lock=N`` — lock striping: key ``k`` shares a lock with
  every key in its stripe ``k // N``, emulating coarse-grained locks
  (Figure 9 runs N in {1, 16});
* page-granularity baselines map a key to its page id first and pass
  that here.

Deadlocks are detected eagerly: before a transaction blocks, the
wait-for graph is probed for a cycle and the *youngest* transaction in
the cycle is aborted with :class:`DeadlockError`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from repro.config import HostCosts
from repro.errors import ReproError
from repro.obs import MetricsRegistry
from repro.sim import Environment, Event


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"


class DeadlockError(ReproError):
    """This transaction was chosen as a deadlock victim; abort and retry."""


def _compatible(held: LockMode, wanted: LockMode) -> bool:
    return held is LockMode.SHARED and wanted is LockMode.SHARED


@dataclass
class _Waiter:
    txn_id: int
    mode: LockMode
    event: Event
    cancelled: bool = False


@dataclass
class _Lock:
    holders: Dict[int, LockMode] = field(default_factory=dict)
    queue: List[_Waiter] = field(default_factory=list)


class LockManager:
    """Keyed S/X locks with FIFO queuing and deadlock victimisation."""

    def __init__(
        self,
        env: Environment,
        costs: HostCosts,
        records_per_lock: int = 1,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if records_per_lock < 1:
            raise ValueError("records_per_lock must be >= 1")
        self.env = env
        self.costs = costs
        self.records_per_lock = records_per_lock
        self._locks: Dict[Hashable, _Lock] = {}
        #: txn_id -> lock name it is currently blocked on (for cycle search)
        self._waiting_on: Dict[int, Hashable] = {}
        self.metrics = (
            metrics
            if metrics is not None
            else MetricsRegistry(clock=lambda: env.now)
        )

    # ------------------------------------------------------------------
    # Granularity
    # ------------------------------------------------------------------

    def lock_name(self, namespace_id: int, key: int) -> Tuple[int, int]:
        """Map a record to its lock: the stripe of ``records_per_lock`` keys."""
        return (namespace_id, key // self.records_per_lock)

    # ------------------------------------------------------------------
    # Acquire / release
    # ------------------------------------------------------------------

    def acquire(self, txn: Any, name: Hashable, mode: LockMode) -> Any:
        """Timed acquire for transaction ``txn`` (needs ``.txn_id`` and
        ``.held_locks``).  Raises :class:`DeadlockError` on victimisation."""
        self.env.try_advance(self.costs.lock_us) or (yield self.env.timeout(self.costs.lock_us))
        lock = self._locks.get(name)
        if lock is None:
            lock = _Lock()
            self._locks[name] = lock
        txn_id = txn.txn_id
        held = lock.holders.get(txn_id)
        if held is not None:
            if held is mode or held is LockMode.EXCLUSIVE:
                return  # already strong enough
            # Upgrade S -> X: immediate if sole holder, else wait.
            if len(lock.holders) == 1:
                lock.holders[txn_id] = LockMode.EXCLUSIVE
                return
        elif self._grantable(lock, mode):
            lock.holders[txn_id] = mode
            txn.held_locks.add(name)
            return
        # Must wait: check for a deadlock this wait would create.
        self.metrics.counter("cache.lock.conflicts").inc()
        blockers = self._blockers(lock, txn_id, mode)
        victim = self._find_deadlock_victim(txn_id, blockers)
        if victim == txn_id:
            self.metrics.counter("cache.lock.deadlocks").inc()
            raise DeadlockError(f"txn {txn_id} victimised on lock {name!r}")
        if victim is not None:
            self.metrics.counter("cache.lock.deadlocks").inc()
            self._kill_waiter(victim)
        waiter = _Waiter(txn_id, mode, self.env.event())
        # Upgraders go to the front so they cannot deadlock behind
        # later arrivals wanting the same lock.
        if held is not None:
            lock.queue.insert(0, waiter)
        else:
            lock.queue.append(waiter)
        self._waiting_on[txn_id] = name
        wait_started = self.env.now
        try:
            yield waiter.event
        finally:
            self._waiting_on.pop(txn_id, None)
            self.metrics.observe("cache.lock.wait_us", self.env.now - wait_started)
        txn.held_locks.add(name)

    def release_all(self, txn: Any) -> None:
        """Drop every lock the transaction holds (commit/abort, SS2PL).

        Release order follows a sorted key: ``held_locks`` is a set, and
        grant order downstream must not depend on hash order.
        """
        for name in sorted(txn.held_locks, key=repr):
            lock = self._locks.get(name)
            if lock is None:
                continue
            lock.holders.pop(txn.txn_id, None)
            self._grant_waiters(name, lock)
        txn.held_locks.clear()

    def release_one(self, txn: Any, name: Hashable) -> None:
        """Release a single lock early (latch semantics, not 2PL)."""
        lock = self._locks.get(name)
        if lock is not None:
            lock.holders.pop(txn.txn_id, None)
            self._grant_waiters(name, lock)
        txn.held_locks.discard(name)

    def cancel_wait(self, txn: Any) -> None:
        """Withdraw a pending wait after the waiter was victimised."""
        name = self._waiting_on.pop(txn.txn_id, None)
        if name is None:
            return
        lock = self._locks.get(name)
        if lock:
            for waiter in lock.queue:
                if waiter.txn_id == txn.txn_id:
                    waiter.cancelled = True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _grantable(self, lock: _Lock, mode: LockMode) -> bool:
        if any(not w.cancelled for w in lock.queue):
            return False  # FIFO fairness: no barging past waiters
        return all(_compatible(held, mode) for held in lock.holders.values())

    def _grant_waiters(self, name: Hashable, lock: _Lock) -> None:
        while lock.queue:
            waiter = lock.queue[0]
            if waiter.cancelled:
                lock.queue.pop(0)
                continue
            held = lock.holders.get(waiter.txn_id)
            if held is not None:
                # Upgrade: grantable only as the sole holder.
                if len(lock.holders) == 1:
                    lock.queue.pop(0)
                    lock.holders[waiter.txn_id] = LockMode.EXCLUSIVE
                    self._waiting_on.pop(waiter.txn_id, None)
                    waiter.event.succeed()
                    continue
                break
            if all(_compatible(h, waiter.mode) for h in lock.holders.values()):
                lock.queue.pop(0)
                lock.holders[waiter.txn_id] = waiter.mode
                self._waiting_on.pop(waiter.txn_id, None)
                waiter.event.succeed()
                if waiter.mode is LockMode.EXCLUSIVE:
                    break
                continue
            break
        if not lock.holders and not lock.queue:
            self._locks.pop(name, None)

    def _blockers(self, lock: _Lock, txn_id: int, mode: LockMode) -> Set[int]:
        """Transactions this waiter would wait behind."""
        blockers = {
            holder
            for holder, held in lock.holders.items()
            if holder != txn_id and not _compatible(held, mode)
        }
        for waiter in lock.queue:
            if not waiter.cancelled and waiter.txn_id != txn_id:
                blockers.add(waiter.txn_id)
        return blockers

    def _find_deadlock_victim(
        self, txn_id: int, blockers: Set[int]
    ) -> Optional[int]:
        """Would waiting behind ``blockers`` close a cycle?

        Follows wait-for edges from each blocker; if the chain reaches
        ``txn_id``, returns the youngest (largest id) transaction in the
        cycle, else None.
        """
        for blocker in sorted(blockers):
            cycle = self._path_to(blocker, txn_id, frozenset())
            if cycle is not None:
                return max(cycle + [txn_id, blocker])
        return None

    def _path_to(self, start: int, target: int, seen) -> Optional[List[int]]:
        if start == target:
            return []
        if start in seen:
            return None
        name = self._waiting_on.get(start)
        if name is None:
            return None
        lock = self._locks.get(name)
        if lock is None:
            return None
        mode = next(
            (w.mode for w in lock.queue if w.txn_id == start and not w.cancelled),
            LockMode.EXCLUSIVE,
        )
        for blocker in sorted(self._blockers(lock, start, mode)):
            path = self._path_to(blocker, target, seen | {start})
            if path is not None:
                return [start] + path
        return None

    def _kill_waiter(self, txn_id: int) -> None:
        """Victimise a *blocked* transaction: fail its pending event."""
        name = self._waiting_on.pop(txn_id, None)
        if name is None:
            return
        lock = self._locks.get(name)
        if lock is None:
            return
        for waiter in lock.queue:
            if waiter.txn_id == txn_id and not waiter.cancelled:
                waiter.cancelled = True
                waiter.event.fail(DeadlockError(f"txn {txn_id} victimised while waiting"))
                break
        self._grant_waiters(name, lock)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def holders_of(self, name: Hashable) -> Dict[int, LockMode]:
        lock = self._locks.get(name)
        return dict(lock.holders) if lock else {}

    def waiting_count(self) -> int:
        return len(self._waiting_on)
