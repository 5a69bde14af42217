"""Zero-event acquisitions, delays and completions: when they go inline,
when they must refuse.

``Resource.try_acquire`` / ``SimLock.try_acquire`` / ``NvramBuffer.try_reserve``
skip the grant event, ``Environment.try_advance`` skips the timeout, and
``Environment._finish`` dispatches a process's completion or a join
inline, only when ``Environment._would_run_next`` proves that event would
have been the very next dispatch.  Each refusal case below is a schedule in which
skipping it *would* reorder something — or, for a delay, would carry a
process past the point where the running loop hands control back; the
differential oracles (``test_zero_event_property.py``, ``tests/integration/
test_zero_event_exactness.py``) check that what goes inline reorders nothing.
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
    # bootstrap + timeout; the grant cost nothing, and so did the process's
    # termination (nobody waits on it: processed on the spot).
    assert env.events_processed == 2
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
# Delays: Environment.try_advance
# ---------------------------------------------------------------------------

def sleeper(env, delay, log):
    """One delay in the canonical call-site shape; logs how it was taken."""
    inline = env.try_advance(delay)
    inline or (yield env.timeout(delay))
    log.append((env.now, "inline" if inline else "heap"))


def test_delay_that_would_pop_next_moves_the_clock_inline():
    env = Environment(initial_time=2.0)
    env.timeout(7.5)  # a later entry does not refuse
    before = (env.events_processed, env.queue_depth)
    assert env.try_advance(7.25)
    assert env.now == 2.0 + 7.25
    assert (env.events_processed, env.queue_depth) == before
    log = []
    env.process(sleeper(env, 0.125, log))
    env.run()
    assert log == [(9.375, "inline")]
    # bootstrap + the 9.5 timeout; the delay cost nothing, and so did the
    # process's completion (nobody waits on it: processed on the spot).
    assert env.events_processed == 2


def test_delay_refuses_when_the_head_is_earlier():
    env = Environment()
    env.timeout(3.0)
    assert not env._would_run_next(NORMAL, 5.0)
    assert not env.try_advance(5.0)
    assert env.now == 0.0 and env.queue_depth == 1  # touched nothing
    assert env.try_advance(2.0)  # ... and a shorter delay still goes


def test_delay_refuses_when_the_head_is_exactly_at_its_deadline():
    """The entry already there holds the older sequence number and wins the
    tie: a timeout is NORMAL, the least urgent priority there is."""
    env = Environment()
    order = []
    env.timeout(5.0).add_callback(lambda _event: order.append("older"))
    assert not env._would_run_next(NORMAL, 5.0)
    assert env._would_run_next(URGENT, 5.0)  # only a more urgent entry overtakes
    assert not env.try_advance(5.0)

    def late():
        env.try_advance(5.0) or (yield env.timeout(5.0))
        order.append("late")

    env.process(late())
    env.run()
    assert order == ["older", "late"]


def test_delay_refuses_behind_a_ghost():
    env = Environment()
    env.timeout(1.0).defuse()  # a no-op entry, but it is still the head
    assert not env.try_advance(2.0)


def test_delay_refuses_mid_fan_out():
    env = Environment()
    start = Event(env)
    logs = {"a": [], "b": []}

    def waiter(tag):
        yield start
        yield from sleeper(env, 1.0, logs[tag])

    env.process(waiter("a"))
    env.process(waiter("b"))
    env.run(until=1.0)
    start.succeed()
    env.run()
    # "a" is not the last thing the dispatch of `start` does; "b" is, but
    # by then a's timeout sits in the heap at the same deadline.
    assert logs == {"a": [(2.0, "heap")], "b": [(2.0, "heap")]}


def test_delay_refuses_beyond_run_until_time():
    """``run(until=T)`` hands control back at T — that is how power cuts
    are timed — so a delay reaching past T stays a pending timeout."""
    env = Environment()
    log = []

    def flow():
        yield from sleeper(env, 4.0, log)   # 4.0 <= T: inline
        yield from sleeper(env, 6.0, log)   # exactly T: the parent runs it too
        yield from sleeper(env, 0.5, log)   # 10.5 > T: must not happen yet

    env.process(flow())
    env.run(until=10.0)
    assert log == [(4.0, "inline"), (10.0, "inline")]
    assert env.now == 10.0 and env.queue_depth == 1  # one timeout left pending
    assert env.peek() == 10.5
    env.run()  # no horizon any more
    assert log[-1] == (10.5, "heap") and env.now == 10.5


def test_delay_refuses_in_the_last_dispatch_of_run_until():
    """Whatever the target's dispatch resumes runs *before* the caller of
    ``run_until`` takes over (kamlbench spins, the crash harness cuts power
    there): it must stop where the heap-driven kernel would have."""
    env = Environment()
    log = []

    def child():
        env.try_advance(1.0) or (yield env.timeout(1.0))

    target = env.process(child())

    def follower():
        yield target
        log.append((env.now, "woke"))
        yield from sleeper(env, 0.0, log)
        yield from sleeper(env, 3.0, log)

    env.process(follower())
    env.run_until(target)
    # Woken by the target's own dispatch, and no further: even a zero delay
    # (and a grant) waits for the next loop.
    assert log == [(1.0, "woke")] and env.now == 1.0
    assert Resource(env).try_acquire() is not None  # flag cleared on return
    env.run()
    assert log == [(1.0, "woke"), (1.0, "heap"), (4.0, "inline")]


def test_delay_and_grant_refuse_under_step():
    """``step()`` dispatches one event and the caller decides what next."""
    env = Environment()
    log = []
    resource = Resource(env)

    def flow():
        log.append(resource.try_acquire() is not None)
        yield from sleeper(env, 2.0, log)

    env.process(flow())
    env.step()  # the bootstrap
    assert log == [False] and env.now == 0.0 and env.queue_depth == 1
    env.step()  # the timeout
    assert log == [False, (2.0, "heap")]


def test_negative_delay_still_raises_through_the_fallback():
    env = Environment()
    assert not env.try_advance(-1.0) and env.now == 0.0

    def flow():
        env.try_advance(-1.0) or (yield env.timeout(-1.0))

    env.process(flow())
    with pytest.raises(SimulationError, match="negative timeout delay"):
        env.run()


# ---------------------------------------------------------------------------
# Completions: Environment._finish
# ---------------------------------------------------------------------------

def test_completion_that_would_pop_next_is_dispatched_inline():
    env = Environment()
    log = []

    def child():
        yield env.timeout(1.0)
        return "done"

    def parent():
        value = yield env.process(child())
        log.append((env.now, value))

    env.process(parent())
    env.run()
    assert log == [(1.0, "done")]
    # Two bootstraps and the timeout.  The child's completion ran the
    # parent's resume inline, and nobody waits on the parent.
    assert env.events_processed == 3


def test_inline_completion_keeps_the_fan_out_rule():
    """The child returns as its dispatch's last act, so its completion is
    dispatched inline; of its two waiters only the last may go inline."""
    env = Environment()
    logs = {"a": [], "b": []}

    def child():
        yield env.timeout(1.0)

    def waiter(proc, tag):
        yield proc
        yield from sleeper(env, 1.0, logs[tag])

    proc = env.process(child())
    env.process(waiter(proc, "a"))
    env.process(waiter(proc, "b"))
    env.run()
    assert logs == {"a": [(2.0, "heap")], "b": [(2.0, "heap")]}
    # Three bootstraps and three timeouts; the completion cost nothing.
    assert env.events_processed == 6


def test_completion_refuses_mid_fan_out():
    """``a`` returns while ``start`` still has ``b`` to wake: the watcher
    of ``a`` must not run before ``b`` has."""
    env = Environment()
    start = Event(env)
    order = []

    def quick(tag):
        yield start
        order.append(tag)

    def watcher(proc):
        yield proc
        order.append("watcher")

    a = env.process(quick("a"))
    env.process(quick("b"))
    env.process(watcher(a))
    env.run(until=1.0)
    start.succeed()
    env.run()
    assert order == ["a", "b", "watcher"]


def test_completion_refuses_behind_an_entry_at_now():
    env = Environment()
    order = []

    def child():
        yield env.timeout(1.0)
        env.timeout(0.0).add_callback(lambda _event: order.append("older"))

    def parent():
        yield env.process(child())
        order.append("parent")

    env.process(parent())
    env.run()
    assert order == ["older", "parent"]


def test_completion_refuses_behind_a_ghost_at_now():
    env = Environment()

    def child():
        yield env.timeout(1.0)
        env.timeout(0.0).defuse()  # a no-op entry, but it is at `now`

    def parent():
        yield env.process(child())

    env.process(parent())
    env.run()
    # Two bootstraps, the timeout, the ghost, and the child's completion.
    assert env.events_processed == 5


def test_completion_of_the_run_until_target_goes_through_the_heap():
    """Its dispatch is that loop's last: the target returning hands
    control back there, not at its own last step.  An entry scheduled
    before the completion still runs first."""
    env = Environment()
    log = []

    def child():
        yield env.timeout(1.0)
        env.timeout(0.0).add_callback(lambda _event: log.append("same instant"))

    target = env.process(child())
    env.run_until(target)  # nobody waits on the target, but run_until does
    assert log == ["same instant"] and target.processed
    joined = env.all_of([env.process(child())])
    env.run_until(joined)  # a join that is the target is pushed too
    assert log == ["same instant"] * 2 and joined.processed


def test_completion_refuses_under_step():
    env = Environment()
    order = []

    def child():
        yield env.timeout(1.0)

    def parent():
        yield env.process(child())
        order.append(env.now)

    env.process(parent())
    env.step()  # the parent's bootstrap spawns the child
    env.step()  # the child's bootstrap
    env.step()  # the timeout: the child returns, its completion is pushed
    assert order == [] and env.queue_depth == 1
    env.step()
    assert order == [1.0]


def test_join_of_events_that_all_fired_goes_through_the_heap():
    """Such a join triggers while its caller is still running, not as a
    dispatch's last act: it refuses whatever the caller does next."""
    env = Environment()
    fired = env.timeout(0.0)
    env.run()
    log = []

    def flow():
        join = env.all_of([fired])
        log.append(env.try_advance(1.0))  # the join sits at `now`
        yield join

    env.process(flow())
    env.run()
    assert log == [False]


def test_a_finished_process_nobody_waits_on_is_processed_on_the_spot():
    """Event-only, not exact: a later ``yield proc`` in the same instant
    resumes at once, ahead of an entry that would have run before the
    completion's dispatch."""
    env = Environment()
    order = []

    def child():
        yield env.timeout(1.0)
        return "value"

    def late(proc):
        yield env.timeout(1.0)
        order.append(("late", proc.processed))
        order.append((yield proc))

    def other():
        yield env.timeout(1.0)
        order.append("other")

    proc = env.process(child())
    env.process(late(proc))
    env.process(other())
    env.run()
    assert order == [("late", True), "value", "other"]
    # Three bootstraps and three timeouts; no completion went through the heap.
    assert env.events_processed == 6


# ---------------------------------------------------------------------------
# Environment.start: a first step inside the spawner's
# ---------------------------------------------------------------------------

def test_eager_first_step_refuses_every_fast_path_and_keeps_the_clock():
    """The spawner's step is not over while the child's first step runs, so
    nothing may go inline there even on an empty heap; the spawner finds
    the clock where it left it and its own fast paths work again."""
    env = Environment()
    gate = Resource(env, capacity=1)
    nvram = NvramBuffer(env, capacity_bytes=1024)
    seen = []

    def child():
        seen.append((
            env.try_advance(5.0), gate.try_acquire(), nvram.try_reserve(64),
            env._would_run_next(NORMAL), env._would_run_next(URGENT), env.now,
        ))
        yield env.timeout(5.0)
        seen.append(("child", env.now))

    def spawner():
        yield env.timeout(1.0)
        proc = env.start(child())
        seen.append(("spawned", env.now, proc.is_alive, env.try_advance(2.0), env.now))

    env.process(spawner())
    env.run()
    assert seen == [
        (False, None, None, False, False, 1.0),
        ("spawned", 1.0, True, True, 3.0),
        ("child", 6.0),
    ]
    # The spawner's bootstrap and two timeouts; the child had no bootstrap.
    assert env.events_processed == 3


def test_eager_first_step_that_returns_processes_the_process_on_the_spot():
    env = Environment()

    def quick():
        return "done"
        yield  # pragma: no cover - makes this a generator

    proc = env.start(quick())
    assert proc.processed and proc.value == "done"
    assert env.queue_depth == 0 and not env._fanning_out


def test_eager_first_step_that_raises_propagates_to_the_spawner():
    env = Environment()
    caught = []

    def broken():
        raise ValueError("first step")
        yield  # pragma: no cover - makes this a generator

    def spawner():
        try:
            env.start(broken())
        except ValueError as exc:
            caught.append((str(exc), env._fanning_out, env.active_process is proc))
        yield env.timeout(1.0)

    proc = env.process(spawner())
    env.run()
    assert caught == [("first step", False, True)]
    assert proc.processed


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
        outer = SimLock(env, name="outer")
        inner = SimLock(env, name="inner")

        def flow():
            assert outer.try_acquire() and inner.try_acquire()
            yield env.timeout(1.0)
            inner.release()
            outer.release()

        env.process(flow())
        env.run()
        recorder = sanitize.recorder_for(env)
        assert recorder.edges() == [("outer", "inner")]
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
