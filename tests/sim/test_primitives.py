"""Unit tests for resources, locks, gates, and processes."""

import pytest

from repro.sim import Environment, Gate, Resource, SimLock, SimulationError


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------

def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    granted = []

    def proc(env, res, tag):
        request = res.request()
        yield request
        granted.append((env.now, tag))
        yield env.timeout(10.0)
        res.release(request)

    for tag in ("a", "b", "c"):
        env.process(proc(env, res, tag))
    env.run()
    times = dict((tag, t) for t, tag in granted)
    assert times["a"] == 0.0
    assert times["b"] == 0.0
    assert times["c"] == 10.0


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def proc(env, res, tag):
        request = res.request()
        yield request
        order.append(tag)
        yield env.timeout(1.0)
        res.release(request)

    for tag in ("first", "second", "third"):
        env.process(proc(env, res, tag))
    env.run()
    assert order == ["first", "second", "third"]


def test_resource_priority_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def holder(env, res):
        request = res.request()
        yield request
        yield env.timeout(5.0)
        res.release(request)

    def waiter(env, res, priority, tag, delay):
        yield env.timeout(delay)
        request = res.request(priority=priority)
        yield request
        order.append(tag)
        res.release(request)

    env.process(holder(env, res))
    env.process(waiter(env, res, priority=5, tag="low", delay=1.0))
    env.process(waiter(env, res, priority=0, tag="high", delay=2.0))
    env.run()
    assert order == ["high", "low"]


def test_resource_release_ungranted_raises():
    env = Environment()
    res = Resource(env, capacity=1)
    held = res.request()

    def proc(env):
        yield held
        queued = res.request()  # never granted
        with pytest.raises(SimulationError):
            res.release(queued)
        res.release(held)
        return True

    p = env.process(proc(env))
    env.run()
    assert p.value is True


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_resource_counters():
    env = Environment()
    res = Resource(env, capacity=1, name="bus")
    first = res.request()
    assert res.in_use == 1
    assert res.available == 0
    res.request()
    assert res.queue_length == 1
    res.release(first)


# ---------------------------------------------------------------------------
# SimLock
# ---------------------------------------------------------------------------

def test_lock_mutual_exclusion():
    env = Environment()
    lock = SimLock(env)
    trace = []

    def proc(env, tag):
        yield lock.acquire(owner=tag)
        trace.append(("enter", tag, env.now))
        yield env.timeout(3.0)
        trace.append(("exit", tag, env.now))
        lock.release()

    env.process(proc(env, "a"))
    env.process(proc(env, "b"))
    env.run()
    assert trace == [
        ("enter", "a", 0.0),
        ("exit", "a", 3.0),
        ("enter", "b", 3.0),
        ("exit", "b", 6.0),
    ]


def test_lock_release_while_free_raises():
    env = Environment()
    lock = SimLock(env, name="l")
    with pytest.raises(SimulationError):
        lock.release()


def test_lock_tracks_holder():
    env = Environment()
    lock = SimLock(env)

    def proc(env):
        yield lock.acquire(owner="txn-1")
        assert lock.locked
        assert lock.holder == "txn-1"
        lock.release()
        assert lock.holder is None

    env.process(proc(env))
    env.run()


# ---------------------------------------------------------------------------
# Gate
# ---------------------------------------------------------------------------

def test_gate_wakes_all_waiters():
    env = Environment()
    gate = Gate(env)
    woken = []

    def waiter(env, tag):
        value = yield gate.wait()
        woken.append((tag, value, env.now))

    def firer(env):
        yield env.timeout(4.0)
        count = gate.fire("go")
        assert count == 2

    env.process(waiter(env, "w1"))
    env.process(waiter(env, "w2"))
    env.process(firer(env))
    env.run()
    assert sorted(woken) == [("w1", "go", 4.0), ("w2", "go", 4.0)]


def test_gate_rearms_after_fire():
    env = Environment()
    gate = Gate(env)
    hits = []

    def waiter(env):
        yield gate.wait()
        hits.append(env.now)
        yield gate.wait()
        hits.append(env.now)

    def firer(env):
        yield env.timeout(1.0)
        gate.fire()
        yield env.timeout(1.0)
        gate.fire()

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert hits == [1.0, 2.0]


def test_gate_fire_with_no_waiters():
    env = Environment()
    gate = Gate(env)
    assert gate.fire() == 0


def test_is_alive_flag():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)

    p = env.process(proc(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive
