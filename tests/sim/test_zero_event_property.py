"""Differential oracle for zero-event acquisitions and delays over random
process graphs.

Every generated program runs twice: once normally, once with the kernel's
"would run next" predicate forced false so every acquisition and every
delay goes through the heap as it did before the fast paths existed.  The
two runs must resume every process at the same instants in the same global
order — also as seen by a driver that takes control back between
``run(until=...)`` slices or ``run_until`` calls — and differ in dispatched
events by exactly the number of grants and advances the normal run elided.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from tests.sim.zero_event_seam import counted_grants, forced_refusal, predicate

from repro.sim import Environment, Gate, Resource, SimLock
from repro.sim.core import Event
from repro.ssd.nvram import NvramBuffer

#: Few distinct delays, zero included, so acquisitions, releases, timeouts
#: and wake-ups pile up on the same instants.
DELAYS = st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.0, 3.5])

STEP = st.one_of(
    st.tuples(st.just("sleep"), DELAYS),
    st.tuples(st.just("resource"), st.integers(0, 2), DELAYS),
    st.tuples(st.just("lock"), st.integers(0, 1), DELAYS),
    # A resource and a lock held together, always taken in that order.
    st.tuples(st.just("both"), st.integers(0, 2), st.integers(0, 1), DELAYS),
    st.tuples(st.just("nvram"), st.sampled_from([100, 400, 900]), DELAYS),
    st.tuples(st.just("all_of"), st.lists(DELAYS, min_size=0, max_size=3)),
    st.tuples(st.just("wait"), st.integers(0, 1)),   # broadcast, one event each
    st.tuples(st.just("fire"), st.integers(0, 1)),
    st.tuples(st.just("join"), st.integers(0, 1)),   # one event, many waiters
    st.tuples(st.just("spawn"), DELAYS),             # child process hand-off
    st.tuples(st.just("await"), st.integers(0, 4)),  # an earlier body: what the "join" driver joins
)

PROGRAM = st.lists(st.lists(STEP, min_size=1, max_size=7), min_size=1, max_size=6)

#: How the driver runs the schedule: in one go, in ``run(until=T)`` slices,
#: or joining each process in turn with ``run_until``.  Between calls it
#: notes how far every process has got.
DRIVE = st.one_of(
    st.just(("run",)),
    st.tuples(st.just("slices"), st.lists(st.sampled_from([0.0, 1.0, 2.5, 3.5, 6.0]), max_size=3)),
    st.just(("join",)),
)


def execute(program, seam, drive=("run",)):
    """Run ``program`` under ``seam``; returns (trace, final now, events,
    grants counted by the seam or None)."""
    with seam() as grants:
        env = Environment()
        resources = [Resource(env, capacity=capacity) for capacity in (1, 2, 1)]
        locks = [SimLock(env, name=f"lock{i}") for i in range(2)]
        nvram = NvramBuffer(env, capacity_bytes=1000)
        gates = [Gate(env) for _ in range(2)]
        shared = [env.timeout(delay) for delay in (1.0, 3.0)]
        trace = []

        def child(pid, index, delay):
            env.try_advance(delay) or (yield env.timeout(delay))
            trace.append((env.now, pid, index, "child"))
            return delay

        def body(pid, steps):
            for index, step in enumerate(steps):
                kind = step[0]
                if kind == "sleep":
                    env.try_advance(step[1]) or (yield env.timeout(step[1]))
                elif kind == "resource":
                    resource = resources[step[1]]
                    request = resource.try_acquire() or (yield resource.request())
                    trace.append((env.now, pid, index, "granted"))
                    env.try_advance(step[2]) or (yield env.timeout(step[2]))
                    resource.release(request)
                elif kind == "lock":
                    lock = locks[step[1]]
                    if not lock.try_acquire(owner=pid):
                        yield lock.acquire(owner=pid)
                    trace.append((env.now, pid, index, "locked"))
                    env.try_advance(step[2]) or (yield env.timeout(step[2]))
                    lock.release()
                elif kind == "both":
                    resource, lock = resources[step[1]], locks[step[2]]
                    request = resource.try_acquire() or (yield resource.request())
                    if not lock.try_acquire(owner=pid):
                        yield lock.acquire(owner=pid)
                    trace.append((env.now, pid, index, "both"))
                    env.try_advance(step[3]) or (yield env.timeout(step[3]))
                    lock.release()
                    resource.release(request)
                elif kind == "nvram":
                    handle = nvram.try_reserve(step[1])
                    if handle is None:
                        handle = yield nvram.reserve(step[1])
                    trace.append((env.now, pid, index, "reserved", handle))
                    env.try_advance(step[2]) or (yield env.timeout(step[2]))
                    nvram.release(handle)
                elif kind == "all_of":
                    yield env.all_of([env.timeout(delay) for delay in step[1]])
                elif kind == "wait":
                    # Bounded wait so an unfired gate cannot strand the run.
                    wake = gates[step[1]].wait()
                    yield env.any_of([wake, env.timeout(5.0)])
                    if not wake.triggered:
                        gates[step[1]].forget(wake)
                elif kind == "fire":
                    gates[step[1]].fire()
                elif kind == "join":
                    yield shared[step[1]]
                elif kind == "spawn":
                    yield env.process(child(pid, index, step[1]))
                elif kind == "await" and pid:
                    yield procs[step[1] % pid]  # earlier bodies only: no cycles
                trace.append((env.now, pid, index, kind))

        procs = [env.process(body(pid, steps)) for pid, steps in enumerate(program)]
        if drive[0] == "slices":
            for cut in sorted(drive[1]):
                env.run(until=cut)
                trace.append((env.now, "driver", len(trace)))
        elif drive[0] == "join":
            for proc in procs:
                env.run_until(proc)
                trace.append((env.now, "driver", len(trace)))
        env.run()
        assert all(r.in_use == 0 for r in resources) and nvram.used_bytes == 0
        return trace, env.now, env.events_processed, grants and grants[0]


@settings(max_examples=250, deadline=None)
@given(PROGRAM, DRIVE)
def test_inline_grants_reorder_nothing(program, drive):
    trace, now, events, elided = execute(program, counted_grants, drive)
    ref_trace, ref_now, ref_events, _ = execute(program, forced_refusal, drive)
    assert trace == ref_trace
    assert now == ref_now
    assert ref_events - events == elided


def test_the_oracle_can_fail():
    """A grant that ignores the predicate's fan-out clause is visible: of
    two processes woken by one event, the first runs on past its
    acquisition before the second has woken at all."""
    def two_waiters():
        env = Environment()
        start = Event(env)
        resource = Resource(env, capacity=2)
        order = []

        def waiter(tag):
            yield start
            order.append((tag, "woke"))
            request = resource.try_acquire() or (yield resource.request())
            order.append((tag, "granted"))
            resource.release(request)

        env.process(waiter("a"))
        env.process(waiter("b"))
        env.run(until=1.0)
        start.succeed()
        env.run()
        return order

    exact = two_waiters()
    with predicate(lambda original: lambda self, priority, delay=0.0: True):
        reckless = two_waiters()
    assert exact == [("a", "woke"), ("b", "woke"), ("a", "granted"), ("b", "granted")]
    assert reckless != exact
