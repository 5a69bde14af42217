"""Unit tests for the DES kernel's clock, events, and scheduling."""

import pytest

from repro.sim import Environment, SimulationError


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=42.0)
    assert env.now == 42.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(10.0)

    env.process(proc(env))
    env.run()
    assert env.now == 10.0


def test_timeouts_fire_in_order():
    env = Environment()
    order = []

    def proc(env, delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(env, 5.0, "b"))
    env.process(proc(env, 1.0, "a"))
    env.process(proc(env, 9.0, "c"))
    env.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fifo():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(3.0)
        order.append(tag)

    for tag in ("x", "y", "z"):
        env.process(proc(env, tag))
    env.run()
    assert order == ["x", "y", "z"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_run_until_stops_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(100.0)

    env.process(proc(env))
    env.run(until=30.0)
    assert env.now == 30.0


def test_run_until_past_raises():
    env = Environment(initial_time=50.0)
    with pytest.raises(SimulationError):
        env.run(until=10.0)


def test_run_until_beyond_schedule_sets_clock():
    env = Environment()
    env.run(until=77.0)
    assert env.now == 77.0


def test_event_succeed_value():
    env = Environment()
    results = []

    def proc(env, event):
        value = yield event
        results.append(value)

    event = env.event()

    def trigger(env, event):
        yield env.timeout(2.0)
        event.succeed("payload")

    env.process(proc(env, event))
    env.process(trigger(env, event))
    env.run()
    assert results == ["payload"]


def test_event_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_fail_throws_into_process():
    env = Environment()
    caught = []

    def proc(env, event):
        try:
            yield event
        except ValueError as exc:
            caught.append(str(exc))

    event = env.event()
    env.process(proc(env, event))
    event.fail(ValueError("boom"))
    env.run()
    assert caught == ["boom"]


def test_event_fail_requires_exception_instance():
    env = Environment()
    event = env.event()
    with pytest.raises(SimulationError):
        event.fail("not-an-exception")


def test_value_of_untriggered_event_raises():
    env = Environment()
    event = env.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_callback_after_processing_runs_immediately():
    env = Environment()
    event = env.event()
    event.succeed(5)
    env.run()
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    assert seen == [5]


def test_process_return_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        return 99

    p = env.process(proc(env))
    env.run()
    assert p.value == 99


def test_process_waits_on_process():
    env = Environment()

    def child(env):
        yield env.timeout(4.0)
        return "child-result"

    def parent(env):
        result = yield env.process(child(env))
        return result

    p = env.process(parent(env))
    env.run()
    assert p.value == "child-result"
    assert env.now == 4.0


def test_yield_from_subroutine():
    env = Environment()

    def sub(env):
        yield env.timeout(2.0)
        return 7

    def main(env):
        a = yield from sub(env)
        b = yield from sub(env)
        return a + b

    p = env.process(main(env))
    env.run()
    assert p.value == 14
    assert env.now == 4.0


def test_unwatched_process_exception_propagates():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        raise RuntimeError("unhandled")

    env.process(proc(env))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_watched_process_exception_delivered_to_waiter():
    env = Environment()
    caught = []

    def child(env):
        yield env.timeout(1.0)
        raise RuntimeError("child-error")

    def parent(env):
        try:
            yield env.process(child(env))
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(parent(env))
    env.run()
    assert caught == ["child-error"]


def test_yield_non_event_is_error():
    env = Environment()

    def proc(env):
        yield 42

    env.process(proc(env))
    with pytest.raises(SimulationError):
        env.run()


def test_all_of_collects_values():
    env = Environment()

    def proc(env):
        values = yield env.all_of([env.timeout(5.0, "a"), env.timeout(1.0, "b")])
        return values

    p = env.process(proc(env))
    env.run()
    assert p.value == ["a", "b"]
    assert env.now == 5.0


def test_all_of_empty_fires_immediately():
    env = Environment()

    def proc(env):
        values = yield env.all_of([])
        return values

    p = env.process(proc(env))
    env.run()
    assert p.value == []


def test_peek_empty_is_inf():
    env = Environment()
    assert env.peek() == float("inf")


def test_step_on_empty_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()
