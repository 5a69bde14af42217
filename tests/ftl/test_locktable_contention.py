"""LockTable contention paths and the runtime lock-order sanitizer."""

import pytest

from repro import sanitize
from repro.errors import InvariantError
from repro.ftl.locktable import LockTable
from repro.sim import Environment


@pytest.fixture
def armed():
    sanitize.set_enabled(True)
    yield
    sanitize.set_enabled(None)


def test_contended_key_grants_in_fifo_order():
    env = Environment()
    table = LockTable(env, name="t")
    order = []

    def worker(tag, hold_us):
        yield from table.acquire("k", owner=tag)
        order.append(tag)
        yield env.timeout(hold_us)
        table.release("k")

    env.process(worker("first", 10.0))
    env.process(worker("second", 10.0))
    env.process(worker("third", 10.0))
    env.run()
    assert order == ["first", "second", "third"]
    assert len(table) == 0  # free locks are discarded


def test_release_on_abort_unblocks_waiter():
    """An aborting holder releases mid-flight; the waiter still proceeds."""
    env = Environment()
    table = LockTable(env, name="t")
    progressed = []

    def aborter():
        yield from table.acquire("k", owner="aborter")
        yield env.timeout(5.0)
        # Abort path: release without completing the guarded work.
        table.release("k")
        return "aborted"

    def waiter():
        yield env.timeout(1.0)  # queue up behind the aborter
        yield from table.acquire("k", owner="waiter")
        progressed.append(env.now)
        table.release("k")

    env.process(aborter())
    env.process(waiter())
    env.run()
    assert progressed == [5.0]
    assert not table.is_locked("k")


def test_release_of_unlocked_key_is_an_error():
    env = Environment()
    table = LockTable(env, name="t")
    with pytest.raises(KeyError):
        table.release("never-acquired")


def test_independent_keys_do_not_contend():
    env = Environment()
    table = LockTable(env, name="t")
    done = []

    def worker(key):
        yield from table.acquire(key)
        yield env.timeout(10.0)
        done.append((key, env.now))
        table.release(key)

    env.process(worker("a"))
    env.process(worker("b"))
    env.run()
    assert [now for _key, now in done] == [10.0, 10.0]


def test_sanitizer_reports_constructed_lock_order_cycle(armed):
    """Two processes take the same two keys in opposite orders.

    Even though this interleaving happens to complete (the second grab of
    each key waits politely), the recorded order graph has a cycle — the
    classic ABBA deadlock — and the sanitizer reports it at edge time.
    """
    env = Environment()
    table = LockTable(env, name="t")

    def forward():
        yield from table.acquire("a", owner="fwd")
        yield env.timeout(2.0)
        yield from table.acquire("b", owner="fwd")  # edge a -> b
        table.release("b")
        table.release("a")

    def backward():
        yield env.timeout(10.0)  # run strictly after forward() finished
        yield from table.acquire("b", owner="bwd")
        yield from table.acquire("a", owner="bwd")  # edge b -> a: cycle
        table.release("a")
        table.release("b")

    env.process(forward())
    env.process(backward())
    with pytest.raises(InvariantError, match="SAN-LOCK"):
        env.run()


def test_sorted_key_order_stays_clean(armed):
    """Acquiring keys in one global order never trips the sanitizer."""
    env = Environment()
    table = LockTable(env, name="t")

    def worker(tag):
        for key in sorted(("a", "b", "c")):
            yield from table.acquire(key, owner=tag)
        yield env.timeout(1.0)
        for key in ("c", "b", "a"):
            table.release(key)

    env.process(worker("w1"))
    env.process(worker("w2"))
    env.run()
    recorder = sanitize.recorder_for(env)
    assert recorder.edges() == [
        ("t['a']", "t['b']"),
        ("t['a']", "t['c']"),
        ("t['b']", "t['c']"),
    ]


def test_nested_tables_record_one_instance_edge(armed):
    """A key of one table held while taking a key of another: one edge,
    between the two per-key lock instances."""
    env = Environment()
    outer = LockTable(env, name="outer")
    inner = LockTable(env, name="inner")

    def worker():
        yield from outer.acquire(1)
        yield from inner.acquire(2)
        inner.release(2)
        outer.release(1)

    env.process(worker())
    env.run()
    assert sanitize.recorder_for(env).edges() == [("outer[1]", "inner[2]")]
