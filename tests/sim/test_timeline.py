"""FCFS timelines for holds of known length, and the absolute-time wait
they end with.

A :class:`Timeline` books a hold onto the earliest-free of its servers
and the holder waits for ``start + length`` with
``env.try_advance_to(end) or (yield env.timeout_at(end))``.  The property
below holds it to what it replaces — a :class:`Resource` request, a
timeout and a release — on random arrivals; the pins fix what a hold
costs in events; the refusals mirror ``try_advance``'s in
``test_zero_event.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Event, Resource, Timeline
from repro.sim.core import SimulationError

#: Few distinct instants and lengths, so arrivals, starts and ends tie.
ARRIVALS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5, 4.0])
LENGTHS = st.one_of(
    st.sampled_from([0.5, 1.0, 1.0, 1.5, 3.0]),
    st.floats(min_value=0.05, max_value=6.0, allow_nan=False),
)


def serve(kind, capacity, holds):
    """Run ``holds`` (arrival, length) on a timeline or on the reference
    resource; returns every hold's ``(tag, start, end)`` in the order the
    holders resumed at their ends, and the final clock."""
    env = Environment()
    server = (Timeline if kind == "timeline" else Resource)(env, capacity=capacity)
    resumed = []

    def holder(tag, at, length):
        yield env.timeout(at)
        if kind == "timeline":
            start = server.book(length)
            end = start + length
            env.try_advance_to(end) or (yield env.timeout_at(end))
        else:
            request = yield server.request()
            start = env.now
            yield env.timeout(length)
            server.release(request)
        resumed.append((tag, start, env.now))

    for tag, (at, length) in enumerate(holds):
        env.process(holder(tag, at, length))
    env.run()
    return resumed, env.now


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=4),
    holds=st.lists(st.tuples(ARRIVALS, LENGTHS), min_size=1, max_size=12),
)
def test_timeline_serves_holds_as_a_resource_would(capacity, holds):
    """Same start and end for every hold, and the same resume order."""
    assert serve("timeline", capacity, holds) == serve("resource", capacity, holds)


def test_book_hands_out_the_earliest_free_server():
    env = Environment(initial_time=1.0)
    timeline = Timeline(env, capacity=2)
    assert [timeline.book(length) for length in (3.0, 1.0, 2.0, 0.5)] == [1.0, 1.0, 2.0, 4.0]
    with pytest.raises(SimulationError):
        Timeline(env, capacity=0)


# ---------------------------------------------------------------------------
# What a hold costs
# ---------------------------------------------------------------------------

def held(env, timeline, length, log):
    """One hold in the canonical call-site shape; logs how it ended."""
    start = timeline.book(length)
    end = start + length
    inline = env.try_advance_to(end)
    inline or (yield env.timeout_at(end))
    log.append((start, env.now, "inline" if inline else "heap"))


def test_a_provably_next_hold_costs_no_event():
    env = Environment()
    timeline, log = Timeline(env), []
    env.run_until(env.process(held(env, timeline, 2.5, log)))
    assert log == [(0.0, 2.5, "inline")]
    assert env.events_processed == 2  # the bootstrap and the run_until target


def test_a_contended_hold_costs_one_event():
    env = Environment()
    timeline, log = Timeline(env), []
    env.process(held(env, timeline, 2.0, log))
    env.process(held(env, timeline, 1.5, log))
    env.run()
    # Two bootstraps; the first hold refuses (the second bootstrap is at
    # now), the second waits behind it: one end event each, no grants.
    assert log == [(0.0, 2.0, "heap"), (2.0, 3.5, "heap")]
    assert env.events_processed == 4


def test_the_end_is_the_absolute_instant():
    """A hold booked at 0.7 behind one that ends at 2.9 ends at
    ``2.9 + 0.3``; ``timeout(end - now)`` would fire an ulp later."""
    env = Environment()
    timeline, log = Timeline(env), []

    def late():
        env.try_advance(0.7) or (yield env.timeout(0.7))
        yield from held(env, timeline, 0.3, log)

    env.process(held(env, timeline, 2.9, log))
    env.process(late())
    env.run()
    end = 2.9 + 0.3
    assert 0.7 + (end - 0.7) != end
    assert log == [(0.0, 2.9, "heap"), (2.9, end, "heap")]


def test_timeout_at_refuses_the_past():
    env = Environment(initial_time=3.0)
    with pytest.raises(SimulationError, match="in the past"):
        env.timeout_at(2.0)
    assert not env.try_advance_to(2.0) and env.now == 3.0


# ---------------------------------------------------------------------------
# Refusals of the absolute wait
# ---------------------------------------------------------------------------

def waiter_until(env, when, log):
    inline = env.try_advance_to(when)
    inline or (yield env.timeout_at(when))
    log.append((env.now, "inline" if inline else "heap"))


def test_absolute_wait_refuses_beyond_run_until_time():
    env = Environment()
    log = []

    def flow():
        yield from waiter_until(env, 4.0, log)    # before T: inline
        yield from waiter_until(env, 10.0, log)   # exactly T: inline too
        yield from waiter_until(env, 10.5, log)   # past T: must not happen yet

    env.process(flow())
    env.run(until=10.0)
    assert log == [(4.0, "inline"), (10.0, "inline")]
    assert env.now == 10.0 and env.queue_depth == 1 and env.peek() == 10.5
    env.run()
    assert log[-1] == (10.5, "heap") and env.now == 10.5


def test_absolute_wait_refuses_mid_fan_out():
    env = Environment()
    start = Event(env)
    logs = {"a": [], "b": []}

    def waiter(tag):
        yield start
        yield from waiter_until(env, 2.0, logs[tag])

    env.process(waiter("a"))
    env.process(waiter("b"))
    env.run(until=1.0)
    start.succeed()
    env.run()
    # "a" is not the last thing the dispatch of `start` does; "b" is, but
    # by then a's wait sits in the heap at the same instant.
    assert logs == {"a": [(2.0, "heap")], "b": [(2.0, "heap")]}


def test_absolute_wait_refuses_in_the_last_dispatch_of_run_until():
    env = Environment()
    log = []

    def child():
        env.try_advance(1.0) or (yield env.timeout(1.0))

    target = env.process(child())

    def follower():
        yield target
        log.append((env.now, "woke"))
        yield from waiter_until(env, 1.0, log)
        yield from waiter_until(env, 4.0, log)

    env.process(follower())
    env.run_until(target)
    assert log == [(1.0, "woke")] and env.now == 1.0
    env.run()
    assert log == [(1.0, "woke"), (1.0, "heap"), (4.0, "inline")]


def test_absolute_wait_refuses_under_step():
    env = Environment()
    log = []
    env.process(waiter_until(env, 2.0, log))
    env.step()  # the bootstrap
    assert log == [] and env.now == 0.0 and env.queue_depth == 1
    env.step()  # the wait
    assert log == [(2.0, "heap")]
