"""Scheduler-internals tests: tie ordering, cancellation, batching.

The fast-path kernel (slotted events, lazy callback lists, counted
ghost cancellation, heap compaction) must preserve the dispatch
contract of the original tuple-heap loop: events fire in strict
``(time, priority, seq)`` order, and cancelled events are invisible to
everything but the ghost accounting.
"""

from repro.sim import Environment
from repro.sim.core import NORMAL, URGENT, Event, _COMPACT_MIN_GHOSTS


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
# Cancellation (defuse) and ghost accounting
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


def test_defuse_is_idempotent_in_ghost_accounting():
    env = Environment()
    timeout = env.timeout(1.0)
    timeout.defuse()
    timeout.defuse()
    assert env._ndefused == 1
    env.run()
    assert env._ndefused == 0


def test_compaction_drops_ghosts_and_keeps_survivor_order():
    env = Environment()
    order = []
    # One live event far in the future, plus enough ghosts to trip the
    # compaction threshold (>= _COMPACT_MIN_GHOSTS and > half the queue).
    survivors = []
    for tag in range(4):
        event = Event(env)
        event.add_callback(lambda _e, tag=tag: order.append(tag))
        env._schedule(event, 100.0 + tag)
        survivors.append(event)
    ghosts = [env.timeout(50.0) for _ in range(_COMPACT_MIN_GHOSTS + 8)]
    for ghost in ghosts:
        ghost.defuse()
    # The 64th defuse crossed the threshold (ghosts outnumbered the live
    # entries), so those ghosts were physically dropped; the 8 defused
    # after the compaction are still buried in the heap.
    assert env._ndefused == 8
    assert env.queue_depth == len(survivors) + 8
    env.run()
    assert order == [0, 1, 2, 3]
    assert env._ndefused == 0  # popping a ghost settles the account


def test_queue_depth_includes_ghosts_until_compaction():
    env = Environment()
    env.timeout(1.0)
    ghost = env.timeout(2.0)
    ghost.defuse()
    # Below the compaction threshold the ghost stays in the heap; only
    # the ghost counter knows it is dead.
    assert env.queue_depth == 2
    assert env._ndefused == 1


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
