"""The inline kernel tests equal the reference predicate.

``Environment.try_advance`` and ``Resource.try_acquire`` evaluate
``Environment._would_run_next`` inline, so that a refusal costs one test
instead of a second call.  On random heaps — ghosts, same-instant ties of
both priorities, a dispatch still fanning out, a ``run(until=)`` horizon —
their verdicts must be exactly what the reference definition says.  The
first property sets that state directly; the second asks from inside the
callbacks of a real ``run(until=)``.
"""

from heapq import heappush
from math import inf

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Resource
from repro.sim.core import NORMAL, URGENT, Event
from repro.sim.resources import Request

#: Few distinct offsets from ``now``, zero included, so entries tie.
OFFSETS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5])
#: (offset, priority, defused): one pending heap entry.
ENTRY = st.tuples(OFFSETS, st.sampled_from([URGENT, NORMAL]), st.booleans())
DELAYS = st.sampled_from([-1.0, 0.0, 0.0, 0.5, 1.0, 2.5, 3.0])


def schedule(env, offset, priority, defused):
    event = Event(env)
    event._triggered = True
    env._schedule(event, offset, priority)
    if defused:
        event.defuse()  # a ghost still sorts where it was pushed


def reference_advance(env, delay):
    return 0 <= delay and env.now + delay <= env._horizon and env._would_run_next(NORMAL, delay)


def check_advance(env, delay):
    """``try_advance(delay)``'s verdict and clock match the reference; the
    clock is put back so the caller's schedule is untouched."""
    now, expected = env.now, reference_advance(env, delay)
    assert env.try_advance(delay) == expected, (now, delay)
    assert env.now == (now + delay if expected else now)
    env.now = now


def check_acquire(resource):
    """``try_acquire()``'s verdict matches the reference; a grant is
    returned at once."""
    env = resource.env
    expected = (
        resource.in_use < resource.capacity
        and not resource._waiting
        and env._would_run_next(URGENT)
    )
    token = resource.try_acquire()
    assert (token is not None) == expected, env.now
    if token is not None:
        resource.release(token)


@settings(max_examples=400, deadline=None)
@given(
    now=st.sampled_from([0.0, 3.0, 7.25]),
    heap=st.lists(ENTRY, max_size=6),
    fanning_out=st.booleans(),
    horizon=st.sampled_from([inf, 0.0, 0.5, 1.0, 2.5]),
    delays=st.lists(DELAYS, min_size=1, max_size=4),
    holders=st.sampled_from(["idle", "full", "queued"]),
)
def test_inline_verdicts_on_random_heaps(now, heap, fanning_out, horizon, delays, holders):
    env = Environment(initial_time=now)
    for entry in heap:
        schedule(env, *entry)
    env._fanning_out = fanning_out
    env._horizon = now + horizon  # what run(until=now + horizon) sets
    resource = Resource(env, capacity=2)
    if holders == "full":
        resource._in_use = resource.capacity
    elif holders == "queued":
        heappush(resource._waiting, (0, 0, Request(resource, 0)))
    for delay in delays:
        check_advance(env, delay)
    check_acquire(resource)


@settings(max_examples=150, deadline=None)
@given(
    events=st.lists(
        st.tuples(OFFSETS, st.sampled_from([URGENT, NORMAL]), st.integers(1, 3)),
        min_size=1, max_size=8,
    ),
    until=st.sampled_from([0.0, 0.5, 1.0, 2.0, 5.0]),
    delays=st.lists(DELAYS, min_size=1, max_size=3),
)
def test_inline_verdicts_inside_a_running_dispatch(events, until, delays):
    """Every callback of every dispatch asks, including the ones that run
    while later callbacks of the same event are still due (fan-out) and
    the ones whose delay would cross ``until``."""
    env = Environment()
    resource = Resource(env, capacity=1)
    asked = []

    def ask(_event):
        asked.append(env.now)
        for delay in delays:
            check_advance(env, delay)
        check_acquire(resource)

    for offset, priority, fan in events:
        event = Event(env)
        for _ in range(fan):
            event.add_callback(ask)
        event._triggered = True
        env._schedule(event, offset, priority)
    env.run(until=until)
    assert asked == sorted(asked) and len(asked) == sum(
        fan for offset, _p, fan in events if offset <= until
    )
