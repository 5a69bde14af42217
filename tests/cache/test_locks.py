"""Unit tests for the SS2PL lock manager: modes, upgrades, deadlocks,
and lock-striping granularity."""

import pytest

from repro.cache.locks import DeadlockError, LockManager, LockMode
from repro.cache.transaction import Transaction
from repro.config import HostCosts
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def manager(env, records_per_lock=1):
    return LockManager(env, HostCosts(), records_per_lock=records_per_lock)


def make_txn(txn_id):
    txn = Transaction(txn_id)
    txn.begin()
    return txn


def test_shared_locks_coexist(env):
    lm = manager(env)
    t1, t2 = make_txn(1), make_txn(2)
    grants = []

    def reader(txn):
        yield from lm.acquire(txn, "r", LockMode.SHARED)
        grants.append(env.now)
        yield env.timeout(10.0)
        lm.release_all(txn)

    env.process(reader(t1))
    env.process(reader(t2))
    env.run()
    assert grants == [pytest.approx(0.6), pytest.approx(0.6)]


def test_exclusive_blocks_shared(env):
    lm = manager(env)
    t1, t2 = make_txn(1), make_txn(2)
    times = {}

    def writer(txn):
        yield from lm.acquire(txn, "r", LockMode.EXCLUSIVE)
        times["writer"] = env.now
        yield env.timeout(10.0)
        lm.release_all(txn)

    def reader(txn):
        yield env.timeout(1.0)
        yield from lm.acquire(txn, "r", LockMode.SHARED)
        times["reader"] = env.now
        lm.release_all(txn)

    env.process(writer(t1))
    env.process(reader(t2))
    env.run()
    assert times["reader"] > 10.0


def test_reacquire_held_lock_is_noop(env):
    lm = manager(env)
    t1 = make_txn(1)

    def flow():
        yield from lm.acquire(t1, "r", LockMode.EXCLUSIVE)
        yield from lm.acquire(t1, "r", LockMode.EXCLUSIVE)
        yield from lm.acquire(t1, "r", LockMode.SHARED)  # weaker: no-op
        lm.release_all(t1)

    env.process(flow())
    env.run()
    assert lm.holders_of("r") == {}


def test_upgrade_sole_holder_immediate(env):
    lm = manager(env)
    t1 = make_txn(1)

    def flow():
        yield from lm.acquire(t1, "r", LockMode.SHARED)
        yield from lm.acquire(t1, "r", LockMode.EXCLUSIVE)
        assert lm.holders_of("r") == {1: LockMode.EXCLUSIVE}
        lm.release_all(t1)

    env.process(flow())
    env.run()


def test_upgrade_waits_for_other_readers(env):
    lm = manager(env)
    t1, t2 = make_txn(1), make_txn(2)
    times = {}

    def other_reader():
        yield from lm.acquire(t2, "r", LockMode.SHARED)
        yield env.timeout(20.0)
        lm.release_all(t2)

    def upgrader():
        yield from lm.acquire(t1, "r", LockMode.SHARED)
        yield env.timeout(1.0)
        yield from lm.acquire(t1, "r", LockMode.EXCLUSIVE)
        times["upgraded"] = env.now
        lm.release_all(t1)

    env.process(other_reader())
    env.process(upgrader())
    env.run()
    assert times["upgraded"] >= 20.0


def test_fifo_no_barging(env):
    lm = manager(env)
    t1, t2, t3 = make_txn(1), make_txn(2), make_txn(3)
    order = []

    def holder():
        yield from lm.acquire(t1, "r", LockMode.EXCLUSIVE)
        yield env.timeout(10.0)
        lm.release_all(t1)

    def writer_waiter():
        yield env.timeout(1.0)
        yield from lm.acquire(t2, "r", LockMode.EXCLUSIVE)
        order.append("writer")
        yield env.timeout(5.0)
        lm.release_all(t2)

    def late_reader():
        yield env.timeout(2.0)
        yield from lm.acquire(t3, "r", LockMode.SHARED)
        order.append("reader")
        lm.release_all(t3)

    env.process(holder())
    env.process(writer_waiter())
    env.process(late_reader())
    env.run()
    assert order == ["writer", "reader"]


def test_two_txn_deadlock_detected(env):
    lm = manager(env)
    t1, t2 = make_txn(1), make_txn(2)
    outcome = {}

    def txn_a():
        yield from lm.acquire(t1, "x", LockMode.EXCLUSIVE)
        yield env.timeout(5.0)
        try:
            yield from lm.acquire(t1, "y", LockMode.EXCLUSIVE)
            outcome["a"] = "ok"
            yield env.timeout(1.0)
        except DeadlockError:
            outcome["a"] = "victim"
        lm.release_all(t1)

    def txn_b():
        yield from lm.acquire(t2, "y", LockMode.EXCLUSIVE)
        yield env.timeout(5.0)
        try:
            yield from lm.acquire(t2, "x", LockMode.EXCLUSIVE)
            outcome["b"] = "ok"
            yield env.timeout(1.0)
        except DeadlockError:
            outcome["b"] = "victim"
        lm.release_all(t2)

    env.process(txn_a())
    env.process(txn_b())
    env.run()
    assert sorted(outcome.values()) == ["ok", "victim"]
    assert lm.metrics.total("cache.lock.deadlocks") >= 1
    # The youngest (t2) must be the victim.
    assert outcome["b"] == "victim"


def test_three_txn_cycle_detected(env):
    lm = manager(env)
    txns = [make_txn(i) for i in (1, 2, 3)]
    victims = []

    def worker(txn, first, second):
        yield from lm.acquire(txn, first, LockMode.EXCLUSIVE)
        yield env.timeout(5.0)
        try:
            yield from lm.acquire(txn, second, LockMode.EXCLUSIVE)
            yield env.timeout(1.0)
        except DeadlockError:
            victims.append(txn.txn_id)
        lm.release_all(txn)

    env.process(worker(txns[0], "a", "b"))
    env.process(worker(txns[1], "b", "c"))
    env.process(worker(txns[2], "c", "a"))
    env.run()
    assert len(victims) >= 1
    assert lm.waiting_count() == 0


def test_no_false_deadlock_on_plain_contention(env):
    lm = manager(env)
    t1, t2, t3 = make_txn(1), make_txn(2), make_txn(3)
    done = []

    def worker(txn):
        yield from lm.acquire(txn, "hot", LockMode.EXCLUSIVE)
        yield env.timeout(3.0)
        lm.release_all(txn)
        done.append(txn.txn_id)

    for txn in (t1, t2, t3):
        env.process(worker(txn))
    env.run()
    assert sorted(done) == [1, 2, 3]
    assert lm.metrics.total("cache.lock.deadlocks") == 0


def test_lock_striping_groups_keys():
    env = Environment()
    lm = manager(env, records_per_lock=16)
    assert lm.lock_name(1, 0) == lm.lock_name(1, 15)
    assert lm.lock_name(1, 15) != lm.lock_name(1, 16)
    assert lm.lock_name(1, 5) != lm.lock_name(2, 5)


def test_striping_creates_false_conflicts(env):
    """Keys 0 and 1 share a stripe of 16: writers serialize (Figure 9)."""
    lm = manager(env, records_per_lock=16)
    t1, t2 = make_txn(1), make_txn(2)
    grants = []

    def writer(txn, key):
        yield from lm.acquire(txn, lm.lock_name(1, key), LockMode.EXCLUSIVE)
        grants.append(env.now)
        yield env.timeout(10.0)
        lm.release_all(txn)

    env.process(writer(t1, 0))
    env.process(writer(t2, 1))
    env.run()
    assert max(grants) >= 10.0
    assert lm.metrics.total("cache.lock.conflicts") == 1


def test_record_level_no_false_conflicts(env):
    lm = manager(env, records_per_lock=1)
    t1, t2 = make_txn(1), make_txn(2)
    grants = []

    def writer(txn, key):
        yield from lm.acquire(txn, lm.lock_name(1, key), LockMode.EXCLUSIVE)
        grants.append(env.now)
        yield env.timeout(10.0)
        lm.release_all(txn)

    env.process(writer(t1, 0))
    env.process(writer(t2, 1))
    env.run()
    assert grants == [pytest.approx(0.6), pytest.approx(0.6)]
    assert lm.metrics.total("cache.lock.conflicts") == 0


def test_records_per_lock_validation(env):
    with pytest.raises(ValueError):
        LockManager(env, HostCosts(), records_per_lock=0)


# -- try_acquire: the zero-event grant ------------------------------------------


def lock_state(lm, env, *txns):
    """Everything a refused try_acquire must leave untouched."""
    return (
        env.now,
        env.queue_depth,
        {
            name: (dict(lock.holders), [(w.txn_id, w.mode, w.cancelled) for w in lock.queue])
            for name, lock in lm._locks.items()
        },
        dict(lm._waiting_on),
        [set(txn.held_locks) for txn in txns],
        lm.metrics.total("cache.lock.conflicts"),
    )


def test_try_acquire_grants_a_free_lock_inline(env):
    lm = manager(env)
    t1 = make_txn(1)
    assert lm.try_acquire(t1, "r", LockMode.SHARED)
    assert env.now == pytest.approx(HostCosts().lock_us)
    assert lm.holders_of("r") == {1: LockMode.SHARED} and t1.held_locks == {"r"}
    # Already held, then the sole holder's upgrade: both inline.
    assert lm.try_acquire(t1, "r", LockMode.SHARED)
    assert lm.try_acquire(t1, "r", LockMode.EXCLUSIVE)
    assert lm.holders_of("r") == {1: LockMode.EXCLUSIVE}
    assert lm.try_acquire(t1, "r", LockMode.SHARED)  # weaker: no-op
    assert lm.holders_of("r") == {1: LockMode.EXCLUSIVE}
    assert env.now == pytest.approx(4 * HostCosts().lock_us)
    assert env.events_processed == 0
    lm.release_all(t1)
    assert lm.holders_of("r") == {} and not lm._locks


def test_try_acquire_refuses_behind_a_queued_waiter(env):
    lm = manager(env)
    t1, t2, t3 = make_txn(1), make_txn(2), make_txn(3)
    assert lm.try_acquire(t1, "r", LockMode.SHARED)
    env.process(lm.acquire(t2, "r", LockMode.EXCLUSIVE))
    env.run()  # t2 is now queued behind t1's S lock
    before = lock_state(lm, env, t1, t2, t3)
    assert not lm.try_acquire(t3, "r", LockMode.SHARED)  # FIFO: no barging
    assert lock_state(lm, env, t1, t2, t3) == before


def test_try_acquire_refuses_an_incompatible_holder(env):
    lm = manager(env)
    t1, t2 = make_txn(1), make_txn(2)
    assert lm.try_acquire(t1, "r", LockMode.EXCLUSIVE)
    before = lock_state(lm, env, t1, t2)
    assert not lm.try_acquire(t2, "r", LockMode.SHARED)
    assert not lm.try_acquire(t2, "r", LockMode.EXCLUSIVE)
    assert lock_state(lm, env, t1, t2) == before


def test_try_acquire_refuses_an_upgrade_beside_other_holders(env):
    lm = manager(env)
    t1, t2 = make_txn(1), make_txn(2)
    assert lm.try_acquire(t1, "r", LockMode.SHARED)
    assert lm.try_acquire(t2, "r", LockMode.SHARED)
    before = lock_state(lm, env, t1, t2)
    assert not lm.try_acquire(t1, "r", LockMode.EXCLUSIVE)
    assert lock_state(lm, env, t1, t2) == before


def test_try_acquire_refuses_when_the_delay_is_not_next(env):
    """Something else is due before the lock-manager cost would end: the
    grant must go through the heap, and the refusal leaves no trace (no
    lock entry, no clock movement)."""
    lm = manager(env)
    t1 = make_txn(1)
    env.timeout(HostCosts().lock_us / 2)
    before = lock_state(lm, env, t1)
    assert not lm.try_acquire(t1, "r", LockMode.EXCLUSIVE)
    assert lock_state(lm, env, t1) == before and not lm._locks
    # The fallback then takes the same lock at the same instant a grant
    # without the fast path would.
    env.process(lm.acquire(t1, "r", LockMode.EXCLUSIVE))
    env.run()
    assert env.now == pytest.approx(HostCosts().lock_us)
    assert lm.holders_of("r") == {1: LockMode.EXCLUSIVE}
