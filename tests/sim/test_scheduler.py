"""Scheduler-internals tests: tie ordering, cancellation, batching.

The fast-path kernel (slotted events, lazy callback lists, cheap ghost
cancellation) must preserve the dispatch contract of the original
tuple-heap loop: events fire in strict ``(time, priority, seq)`` order,
and a cancelled event fires no callback but is still popped and counted.
"""

from repro.sim import Environment
from repro.sim.core import NORMAL, URGENT, Event


# ---------------------------------------------------------------------------
# Ordering ties
# ---------------------------------------------------------------------------

def test_same_time_dispatch_is_fifo_by_seq():
    env = Environment()
    order = []
    for tag in range(8):
        event = Event(env)
        event.add_callback(lambda _e, tag=tag: order.append(tag))
        env._schedule(event, 5.0)
    env.run()
    assert order == list(range(8))


def test_urgent_beats_normal_at_same_time():
    env = Environment()
    order = []
    normal = Event(env)
    normal.add_callback(lambda _e: order.append("normal"))
    env._schedule(normal, 1.0, NORMAL)
    urgent = Event(env)
    urgent.add_callback(lambda _e: order.append("urgent"))
    env._schedule(urgent, 1.0, URGENT)
    env.run()
    # The urgent event was scheduled *later* (higher seq) but still wins.
    assert order == ["urgent", "normal"]


def test_time_beats_priority():
    env = Environment()
    order = []
    urgent_late = Event(env)
    urgent_late.add_callback(lambda _e: order.append("urgent@2"))
    env._schedule(urgent_late, 2.0, URGENT)
    normal_early = Event(env)
    normal_early.add_callback(lambda _e: order.append("normal@1"))
    env._schedule(normal_early, 1.0, NORMAL)
    env.run()
    assert order == ["normal@1", "urgent@2"]


def test_same_tick_batch_holds_clock_constant():
    env = Environment()
    seen_times = []

    def proc(env):
        for _ in range(5):
            yield env.timeout(0.0)
            seen_times.append(env.now)
        yield env.timeout(1.0)
        seen_times.append(env.now)

    env.process(proc(env))
    env.run()
    assert seen_times == [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]


# ---------------------------------------------------------------------------
# Cancellation (defuse)
# ---------------------------------------------------------------------------

def test_defused_event_never_fires():
    env = Environment()
    fired = []
    timeout = env.timeout(1.0)
    timeout.add_callback(lambda _e: fired.append(True))
    timeout.defuse()
    env.run()
    assert fired == []
    assert env.now == 1.0  # the ghost still advances the clock when popped


def test_a_defused_ghost_stays_queued_and_counts_as_a_dispatch():
    env = Environment()
    fired = []
    env.timeout(1.0)
    ghost = env.timeout(2.0)
    ghost.add_callback(lambda _e: fired.append(True))
    ghost.defuse()
    ghost.defuse()  # idempotent
    assert env.queue_depth == 2
    env.run()
    assert fired == [] and env.now == 2.0
    assert env.events_processed == 2


def test_events_processed_counts_dispatches():
    env = Environment()

    def proc(env):
        for _ in range(10):
            yield env.timeout(1.0)

    env.process(proc(env))
    env.run()
    # 10 timeout dispatches, plus the process's bootstrap initialisation
    # event; its termination costs none (nobody waits on the process, so
    # it is processed on the spot).
    assert env.events_processed == 11
