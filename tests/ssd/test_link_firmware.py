"""Unit tests for the PCIe interconnect model and firmware pool."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import InterconnectTimings
from repro.obs import MetricsRegistry
from repro.sim import Environment
from repro.ssd import FirmwarePool, HostInterconnect


TIMINGS = InterconnectTimings(bytes_per_us=3200.0, command_us=6.0)


def run(env, gen):
    proc = env.process(gen)
    env.run()
    return proc.value


def test_command_overhead_time():
    env = Environment()
    link = HostInterconnect(env, TIMINGS)

    def flow():
        yield from link.command_overhead()
        return env.now

    assert run(env, flow()) == pytest.approx(6.0)
    assert link.commands == 1


def test_transfer_time_scales_with_bytes():
    env = Environment()
    link = HostInterconnect(env, TIMINGS)

    def flow():
        yield from link.host_to_device(3200 * 10)
        return env.now

    assert run(env, flow()) == pytest.approx(10.0)
    assert link.bytes_to_device == 32000


def test_directions_are_independent():
    env = Environment()
    link = HostInterconnect(env, TIMINGS)

    def tx(env):
        yield from link.host_to_device(32000)
        return env.now

    def rx(env):
        yield from link.device_to_host(32000)
        return env.now

    p1 = env.process(tx(env))
    p2 = env.process(rx(env))
    env.run()
    assert p1.value == pytest.approx(10.0)
    assert p2.value == pytest.approx(10.0)


def test_same_direction_serializes():
    env = Environment()
    link = HostInterconnect(env, TIMINGS)

    def tx(env):
        yield from link.host_to_device(32000)
        return env.now

    p1 = env.process(tx(env))
    p2 = env.process(tx(env))
    env.run()
    assert sorted([p1.value, p2.value]) == [pytest.approx(10.0), pytest.approx(20.0)]


def test_zero_byte_transfer_is_free():
    env = Environment()
    link = HostInterconnect(env, TIMINGS)

    def flow():
        yield from link.host_to_device(0)
        yield env.timeout(0.0)
        return env.now

    assert run(env, flow()) == 0.0


def test_firmware_pool_limits_concurrency():
    env = Environment()
    pool = FirmwarePool(env, contexts=2)
    done = []

    def job(env, tag):
        yield from pool.execute(10.0)
        done.append((tag, env.now))

    for tag in range(3):
        env.process(job(env, tag))
    env.run()
    times = sorted(t for _, t in done)
    assert times == [pytest.approx(10.0), pytest.approx(10.0), pytest.approx(20.0)]
    assert pool.busy_us == pytest.approx(30.0)


def test_firmware_zero_cost_is_free():
    env = Environment()
    pool = FirmwarePool(env, contexts=1)

    def job(env):
        yield from pool.execute(0.0)
        yield env.timeout(0.0)
        return env.now

    p = env.process(job(env))
    env.run()
    assert p.value == 0.0


def fan_out(pool, costs):
    """What :meth:`FirmwarePool.execute_wave` replaces: one ``execute``
    process per cost, joined."""
    env = pool.env
    return env.all_of([env.process(pool.execute(cost)) for cost in costs])


def wave(pool, costs):
    return pool.execute_wave(costs)


COSTS = st.one_of(
    st.sampled_from([0.0, 1.0, 2.5, 4.0]),
    st.floats(min_value=0.05, max_value=9.0, allow_nan=False),
)
INSTANTS = st.sampled_from([0.0, 1.0, 2.5, 4.0])


@settings(max_examples=80, deadline=None)
@given(
    contexts=st.integers(min_value=1, max_value=4),
    waves=st.lists(
        st.tuples(INSTANTS, st.lists(COSTS, min_size=2, max_size=8)),
        min_size=1, max_size=3,
    ),
    rivals=st.lists(st.tuples(INSTANTS, COSTS), max_size=10),
)
def test_wave_matches_the_per_process_fan_out(contexts, waves, rivals):
    """On a contended pool, a wave and the fan-out it replaces finish every
    job at the same instants, with the same busy time and the same wait
    samples, in the same order."""

    def outcome(launch):
        env = Environment()
        registry = MetricsRegistry()
        pool = FirmwarePool(env, contexts, metrics=registry)
        finished = []

        def rival(tag, at, cost):
            yield env.timeout(at)
            yield from pool.execute(cost)
            finished.append((tag, env.now))

        def batch(tag, at, costs):
            yield env.timeout(at)
            yield launch(pool, costs)
            finished.append((tag, env.now))

        for tag, (at, costs) in enumerate(waves):
            env.process(batch(("wave", tag), at, costs))
        for tag, (at, cost) in enumerate(rivals):
            env.process(rival(("rival", tag), at, cost))
        env.run()
        return (
            finished,
            pool.busy_us,
            registry.histogram("kaml.firmware.wait_us")._samples,
        )

    assert outcome(wave) == outcome(fan_out)


def test_wave_of_free_work_completes_at_once():
    env = Environment()
    pool = FirmwarePool(env, contexts=1)

    def job():
        yield pool.execute_wave([0.0, 0.0])
        return env.now

    assert run(env, job()) == 0.0
    assert pool.busy_us == 0.0


@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("rival", [False, True])
def test_a_wave_costs_at_most_its_bootstrap_and_one_end_event(k, rival):
    """A k-cost wave on two contexts costs one end event, plus its
    bootstrap when a rival event at ``now`` keeps the claim off the spot:
    never a grant and a release per cost."""
    env = Environment()
    pool = FirmwarePool(env, contexts=2)
    ends = []

    def job():
        yield pool.execute_wave([1.0] * k)
        ends.append(env.now)

    env.process(job())
    if rival:
        env.timeout(0.0)
    env.run()
    assert ends == [float((k + 1) // 2)] and pool.busy_us == float(k)
    # The job's bootstrap and the rival; the job's completion is processed
    # on the spot (nobody waits on it).
    assert env.events_processed - 1 - rival == 1 + rival
