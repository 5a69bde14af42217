"""Zero-event acquisition: when it grants, when it must refuse.

``Resource.try_acquire`` / ``SimLock.try_acquire`` / ``NvramBuffer.try_reserve``
skip the grant event only when ``Environment._would_run_next`` proves that
event would have been the very next dispatch.  Each refusal case below is a
schedule in which skipping it *would* reorder something; the differential
oracles (``test_zero_event_property.py``, ``tests/integration/
test_zero_event_exactness.py``) check that the grants reorder nothing.
"""

import pytest

from repro import sanitize
from repro.obs import MetricsRegistry
from repro.sim import Environment, Resource, SimLock
from repro.sim.core import NORMAL, URGENT, Event, SimulationError
from repro.ssd.nvram import NvramBuffer


def hold(env, resource, order, tag, duration=1.0):
    """One process body in the canonical call-site shape."""
    request = resource.try_acquire() or (yield resource.request())
    order.append((tag, env.now))
    yield env.timeout(duration)
    resource.release(request)


# ---------------------------------------------------------------------------
# The grant
# ---------------------------------------------------------------------------

def test_idle_resource_is_granted_without_an_event():
    env = Environment()
    resource = Resource(env, capacity=1)
    order = []
    env.process(hold(env, resource, order, "a"))
    env.run()
    assert order == [("a", 0.0)]
    # bootstrap + timeout + process termination; the grant cost nothing.
    assert env.events_processed == 3
    assert resource.in_use == 0


def test_inline_grant_is_a_finished_request():
    env = Environment()
    resource = Resource(env, capacity=2)
    request = resource.try_acquire()
    assert request is not None and request.processed and request.value is request
    assert resource.in_use == 1 and env.queue_depth == 0
    resource.release(request)
    assert resource.in_use == 0


def test_next_waiter_is_granted_on_release_of_an_inline_grant():
    env = Environment()
    resource = Resource(env, capacity=1)
    order = []
    env.process(hold(env, resource, order, "first"))
    env.process(hold(env, resource, order, "second"))
    env.run()
    assert order == [("first", 0.0), ("second", 1.0)]


# ---------------------------------------------------------------------------
# Refusals
# ---------------------------------------------------------------------------

def test_refuses_when_contended():
    env = Environment()
    resource = Resource(env, capacity=1)
    held = resource.try_acquire()
    assert held is not None
    assert resource.try_acquire() is None  # no free unit
    assert resource.in_use == 1 and resource.queue_length == 0  # and no side effect


def test_refuses_when_waiters_are_queued_ahead():
    env = Environment()
    resource = Resource(env, capacity=2)
    first, second = resource.try_acquire(), resource.try_acquire()
    waiter = resource.request()
    resource.release(first)
    assert waiter.triggered and resource.in_use == 2
    resource.release(second)
    # A unit is free, but the waiter's grant is an URGENT entry at `now`:
    # it must be dispatched before anything this caller does next.
    assert resource.try_acquire() is None


def test_refuses_while_an_urgent_event_is_pending_now():
    env = Environment()
    busy, idle = Resource(env, capacity=1), Resource(env, capacity=1)
    pending = busy.request()  # granted through the heap: URGENT at now
    assert pending.triggered and not pending.processed
    assert idle.try_acquire() is None
    env.run()
    assert idle.try_acquire() is not None


def test_normal_entry_at_now_refuses_normal_but_not_urgent():
    env = Environment()
    env.timeout(0.0)  # a NORMAL entry at `now`
    assert env._would_run_next(URGENT)
    assert not env._would_run_next(NORMAL)
    nvram = NvramBuffer(env, capacity_bytes=4096)
    assert nvram.try_reserve(100) is None
    assert Resource(env).try_acquire() is not None
    env.run()
    assert nvram.try_reserve(100) == 0


def test_later_entries_do_not_refuse():
    env = Environment()
    env.timeout(5.0)
    assert env._would_run_next(URGENT) and env._would_run_next(NORMAL)


def test_refuses_mid_fan_out_of_a_multi_callback_event():
    """Two processes wake on one event.  The first resumed is not the last
    thing that dispatch does — the second still has to run at this instant
    — so only the last callback may be granted inline."""
    env = Environment()
    start = Event(env)
    resources = {"a": Resource(env), "b": Resource(env)}
    granted_inline = {}

    def waiter(tag):
        yield start
        request = resources[tag].try_acquire()
        granted_inline[tag] = request is not None
        if request is not None:
            resources[tag].release(request)

    env.process(waiter("a"))
    env.process(waiter("b"))
    env.run(until=1.0)
    start.succeed()
    env.run()
    assert granted_inline == {"a": False, "b": True}


def test_fan_out_flag_clears_after_a_callback_raises():
    env = Environment()
    event = Event(env)

    def boom(_event):
        raise RuntimeError("boom")

    event.add_callback(boom)
    event.add_callback(lambda _event: None)
    event.succeed()
    with pytest.raises(RuntimeError):
        env.run()
    assert env._would_run_next(URGENT)


# ---------------------------------------------------------------------------
# SimLock and NVRAM forms
# ---------------------------------------------------------------------------

def test_simlock_try_acquire_tracks_holder_and_hands_over():
    env = Environment()
    lock = SimLock(env, name="latch")
    order = []

    def worker(tag):
        if not lock.try_acquire(owner=tag):
            yield lock.acquire(owner=tag)
        assert lock.locked and lock.holder == tag
        order.append((tag, env.now))
        yield env.timeout(2.0)
        lock.release()

    env.process(worker("a"))
    env.process(worker("b"))
    env.run()
    assert order == [("a", 0.0), ("b", 2.0)]
    assert not lock.locked and lock.holder is None


def test_simlock_try_acquire_feeds_the_lock_order_recorder():
    sanitize.set_enabled(True)
    try:
        env = Environment()
        outer = SimLock(env, name="outer", static_site="T.outer")
        inner = SimLock(env, name="inner", static_site="T.inner")

        def flow():
            assert outer.try_acquire() and inner.try_acquire()
            yield env.timeout(1.0)
            inner.release()
            outer.release()

        env.process(flow())
        env.run()
        recorder = sanitize.recorder_for(env)
        assert recorder.edges() == [("outer", "inner")]
        assert recorder.site_edges() == [("T.outer", "T.inner")]
        assert recorder._held == {}  # both releases were attributed
    finally:
        sanitize.set_enabled(None)


def test_nvram_try_reserve_grants_or_defers_to_reserve():
    env = Environment()
    nvram = NvramBuffer(env, capacity_bytes=1000)
    first = nvram.try_reserve(600, payload="a")
    assert first == 0 and nvram.used_bytes == 600 and nvram.payload(first) == "a"
    assert nvram.try_reserve(600) is None  # does not fit: caller must wait
    with pytest.raises(ValueError):
        nvram.try_reserve(0)


# ---------------------------------------------------------------------------
# Satellites: resume loop, queue gauge, flattened Timeout
# ---------------------------------------------------------------------------

def test_process_can_yield_thousands_of_fired_events_in_a_row():
    """``_resume`` feeds already-processed targets back in a loop; it used
    to recurse once per event and die with RecursionError near 1 000."""
    env = Environment()
    done = [env.timeout(1.0, value=i) for i in range(5000)]
    env.run()
    assert all(event.processed for event in done)

    def collector():
        total = 0
        for event in done:
            total += yield event
        return total

    proc = env.process(collector())
    env.run()
    assert proc.value == sum(range(5000))


def test_processed_failed_event_is_thrown_into_the_process():
    env = Environment()
    failed = Event(env)
    failed.fail(KeyError("gone"))
    failed.add_callback(lambda _event: None)
    env.run()

    def flow():
        try:
            yield failed
        except KeyError:
            return "caught"

    proc = env.process(flow())
    env.run()
    assert proc.value == "caught"


def test_queue_gauge_is_read_on_demand():
    env = Environment()
    registry = MetricsRegistry()
    env.attach_metrics(registry)
    gauge = registry.gauge("sim.queue_depth")
    for delay in (1.0, 2.0, 3.0):
        env.timeout(delay)
    assert (gauge.value, gauge.high_water) == (3.0, 3.0)
    env.run(until=2.5)
    assert (gauge.value, gauge.high_water) == (1.0, 3.0)
    assert gauge.export() == {"value": 1.0, "high_water": 3.0}
    assert registry.value("sim.queue_depth") == 1.0
    # First caller owns the gauge; a second registry gets nothing.
    other = MetricsRegistry()
    env.attach_metrics(other)
    assert other.value("sim.queue_depth") == 0.0


def test_timeout_keeps_its_checks_and_sequence_order():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)
    order = []
    first = env.timeout(1.0, value="first")
    between = Event(env)
    env._schedule(between, 1.0)
    last = env.timeout(1.0, value="last")
    for tag, event in (("first", first), ("between", between), ("last", last)):
        event.add_callback(lambda _event, tag=tag: order.append(tag))
    assert first.triggered and first.delay == 1.0 and first.value == "first"
    env.run()
    assert order == ["first", "between", "last"]
