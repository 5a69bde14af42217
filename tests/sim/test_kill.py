"""``Process.kill``: a process ended where it is parked, and the registry
a process joins at spawn and leaves when it ends."""

import pytest

from repro.sim import Environment, Resource


class Cut(Exception):
    """What these tests kill with."""


def test_a_parked_process_runs_its_finally_at_the_kill_and_never_resumes():
    env = Environment()
    steps = []

    def worker():
        try:
            steps.append("parked")
            yield env.timeout(10.0)
            steps.append("resumed")
        finally:
            steps.append(("finally", env.now))

    def waiter(process):
        try:
            yield process
        except Cut as exc:
            steps.append(("waiter", env.now, str(exc)))

    process = env.process(worker())
    env.process(waiter(process))
    env.run(until=4.0)
    process.kill(Cut("power"))
    assert steps == ["parked", ("finally", 4.0)]
    env.run()
    assert steps == ["parked", ("finally", 4.0), ("waiter", 4.0, "power")]
    assert not process.is_alive and not process.ok
    assert env.now == 10.0  # the timeout it parked on still pops, as a no-op


def test_a_killed_process_nobody_waits_on_holds_the_exception():
    env = Environment()

    def worker():
        yield env.timeout(10.0)

    process = env.process(worker())
    env.run(until=1.0)
    process.kill(Cut("power"))
    with pytest.raises(Cut):
        process.value  # noqa: B018
    env.run()
    assert env.events_processed == 2  # the bootstrap and the dead timeout


def test_a_queued_request_is_withdrawn_and_the_next_waiter_is_granted():
    env = Environment()
    engine = Resource(env, capacity=1)
    granted = []

    def claimant(name, hold):
        request = yield engine.request()
        granted.append((name, env.now))
        try:
            yield env.timeout(hold)
        finally:
            engine.release(request)

    env.process(claimant("holder", 10.0))
    env.run(until=1.0)
    doomed = env.process(claimant("doomed", 5.0))
    env.process(claimant("next", 5.0))
    env.run(until=2.0)
    assert engine.queue_length == 2
    doomed.kill(Cut("power"))
    assert engine.queue_length == 1
    env.run()
    assert granted == [("holder", 0.0), ("next", 10.0)]
    assert engine.in_use == 0


def test_a_held_request_is_released_at_the_kill():
    env = Environment()
    engine = Resource(env, capacity=1)
    granted = []

    def claimant(name):
        request = engine.try_acquire() or (yield engine.request())
        granted.append((name, env.now))
        try:
            yield env.timeout(100.0)
        finally:
            engine.release(request)

    holder = env.process(claimant("holder"))
    env.process(claimant("next"))
    env.run(until=3.0)
    holder.kill(Cut("power"))
    assert engine.in_use == 1  # handed to the next waiter at the kill
    env.run()
    assert granted == [("holder", 0.0), ("next", 3.0)]


def test_a_request_granted_but_not_yet_resumed_is_released():
    env = Environment()
    engine = Resource(env, capacity=1)
    granted = []

    def claimant(name):
        request = yield engine.request()
        granted.append(name)
        engine.release(request)

    first = env.process(claimant("first"))
    env.process(claimant("second"))
    env.step()  # first's bootstrap: its request is granted, the grant not yet popped
    assert engine.in_use == 1
    first.kill(Cut("power"))
    env.run()
    assert granted == ["second"] and engine.in_use == 0


def test_a_process_killed_before_its_bootstrap_never_starts():
    env = Environment()
    started = []

    def worker():
        started.append(env.now)
        yield env.timeout(1.0)

    process = env.process(worker())
    process.kill(Cut("power"))
    env.run()
    assert started == [] and not process.is_alive


def test_a_process_killed_during_a_fan_out_is_not_resumed_after():
    env = Environment()
    woken = []
    gate = env.event()
    processes = {}

    def first():
        yield gate
        woken.append("first")
        processes["second"].kill(Cut("power"))

    def second():
        yield gate
        woken.append("second")

    registry = {}
    env.process(first())
    processes["second"] = env.process(second(), registry)
    env.run(until=1.0)
    gate.succeed()  # one dispatch resumes both: first, then second
    env.run()
    assert woken == ["first"] and registry == {}
    with pytest.raises(Cut):
        processes["second"].value  # noqa: B018


def test_killing_an_ended_process_is_a_no_op():
    env = Environment()

    def worker():
        yield env.timeout(1.0)
        return "done"

    process = env.process(worker())
    env.run()
    process.kill(Cut("power"))
    assert process.value == "done"


def test_the_running_process_is_left_to_raise_out():
    env = Environment()
    registry = {}

    def worker():
        yield env.timeout(1.0)
        for process in list(registry):
            process.kill(Cut("power"))  # itself among them: skipped
        raise Cut("raised out")

    env.process(worker(), registry)
    with pytest.raises(Cut, match="raised out"):
        env.run()
    assert registry == {}


def test_a_registered_process_leaves_the_registry_however_it_ends():
    env = Environment()
    registry = {}

    def worker(delay):
        yield env.timeout(delay)

    def crasher():
        yield env.timeout(1.0)
        raise Cut("crash")

    def watcher(process):
        try:
            yield process
        except Cut:
            pass

    returning = env.process(worker(1.0), registry)
    killed = env.process(worker(5.0), registry)
    eager = env.start(worker(2.0), registry)
    env.process(watcher(env.process(crasher(), registry)))
    assert list(registry)[:3] == [returning, killed, eager]  # spawn order
    env.run(until=3.0)
    assert list(registry) == [killed]
    killed.kill(Cut("power"))
    assert registry == {}
