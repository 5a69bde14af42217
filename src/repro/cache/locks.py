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
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from repro.config import HostCosts
from repro.errors import ReproError
from repro.obs import MetricsRegistry, lazy_instrument
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


class _Lock:
    """A lock somebody holds or waits for (free locks have no entry)."""

    __slots__ = ("holders", "queue")

    def __init__(self, holders: Dict[int, LockMode]) -> None:
        self.holders = holders
        self.queue: List[_Waiter] = []


class LockManager:
    """Keyed S/X locks with FIFO queuing and deadlock victimisation."""

    _conflicts_counter = lazy_instrument("counter", "cache.lock.conflicts")
    _deadlocks_counter = lazy_instrument("counter", "cache.lock.deadlocks")
    _wait_us_histogram = lazy_instrument("histogram", "cache.lock.wait_us")

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
        self.metrics = metrics if metrics is not None else MetricsRegistry()

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
        txn_id = txn.txn_id
        if lock is None or self._can_grant(lock, txn_id, mode):
            self._grant(txn, name, lock, mode)
            return
        # Must wait: check for a deadlock this wait would create.
        self._conflicts_counter.inc()
        blockers = self._blockers(lock, txn_id, mode)
        victim = self._find_deadlock_victim(txn_id, blockers)
        if victim == txn_id:
            self._deadlocks_counter.inc()
            raise DeadlockError(f"txn {txn_id} victimised on lock {name!r}")
        if victim is not None:
            self._deadlocks_counter.inc()
            self._kill_waiter(victim)
        waiter = _Waiter(txn_id, mode, self.env.event())
        # Upgraders go to the front so they cannot deadlock behind
        # later arrivals wanting the same lock.
        if txn_id in lock.holders:
            lock.queue.insert(0, waiter)
        else:
            lock.queue.append(waiter)
        self._waiting_on[txn_id] = name
        wait_started = self.env.now
        try:
            yield waiter.event
        finally:
            self._waiting_on.pop(txn_id, None)
            self._wait_us_histogram.observe(self.env.now - wait_started)
        txn.held_locks.add(name)

    def try_acquire(self, txn: Any, name: Hashable, mode: LockMode) -> bool:
        """Zero-event form of :meth:`acquire` for a lock granted on the spot::

            if not locks.try_acquire(txn, name, mode):
                yield from locks.acquire(txn, name, mode)

        Checks first that ``acquire`` would grant without waiting, then
        takes the lock-manager cost inline (:meth:`Environment.try_advance`):
        with nothing else running in between, the grant ``acquire`` would
        decide after its delay is the one decided here.  ``False`` (a wait
        is needed, or the delay must go through the event heap) changes
        nothing.
        """
        lock = self._locks.get(name)
        if lock is not None and not self._can_grant(lock, txn.txn_id, mode):
            return False
        if not self.env.try_advance(self.costs.lock_us):
            return False
        self._grant(txn, name, lock, mode)
        return True

    def release_all(self, txn: Any) -> None:
        """Drop every lock the transaction holds (commit/abort, SS2PL).

        Release order follows a sorted key: ``held_locks`` is a set, and
        grant order downstream must not depend on hash order.
        """
        held = txn.held_locks
        for name in held if len(held) == 1 else sorted(held, key=repr):
            lock = self._locks.get(name)
            if lock is None:
                continue
            lock.holders.pop(txn.txn_id, None)
            if lock.queue:
                self._grant_waiters(name, lock)
            elif not lock.holders:
                del self._locks[name]
        held.clear()

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

    def _can_grant(self, lock: _Lock, txn_id: int, mode: LockMode) -> bool:
        """Would ``txn_id`` get ``lock`` in ``mode`` without waiting?  (A
        name with no entry is free; callers check that first.)"""
        held = lock.holders.get(txn_id)
        if held is None:
            return self._grantable(lock, mode)
        # Already strong enough, or an S -> X upgrade by the sole holder.
        return held is mode or held is LockMode.EXCLUSIVE or len(lock.holders) == 1

    def _grant(self, txn: Any, name: Hashable, lock: Optional[_Lock], mode: LockMode) -> None:
        """Take a lock that is free (``lock`` None) or :meth:`_can_grant`
        allowed."""
        txn_id = txn.txn_id
        if lock is None:
            self._locks[name] = _Lock({txn_id: mode})
            txn.held_locks.add(name)
            return
        held = lock.holders.get(txn_id)
        if held is None:
            lock.holders[txn_id] = mode
            txn.held_locks.add(name)
        elif held is LockMode.SHARED and mode is LockMode.EXCLUSIVE:
            lock.holders[txn_id] = LockMode.EXCLUSIVE  # sole holder's upgrade

    def _grantable(self, lock: _Lock, mode: LockMode) -> bool:
        if lock.queue and any(not w.cancelled for w in lock.queue):
            return False  # FIFO fairness: no barging past waiters
        holders = lock.holders
        return not holders or all(_compatible(held, mode) for held in holders.values())

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
