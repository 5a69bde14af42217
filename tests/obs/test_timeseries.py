"""The telemetry sampler the cluster autobalancer reads: probes, deltas,
the bounded ring, and its strictly opt-in (pay-as-you-go) event
footprint."""

import pytest

from repro.obs.timeseries import TimeSeriesCollector
from repro.sim import Environment


def _wait(env, duration):
    yield env.timeout(duration)


def _run_for(env, duration):
    env.run_until(env.process(_wait(env, duration)))


def test_gauge_probes_sample_on_the_interval():
    env = Environment()
    collector = TimeSeriesCollector(env, interval_us=10.0)
    depth = {"value": 0.0}
    collector.add_probe("queue.depth", lambda: depth["value"])
    collector.start()
    depth["value"] = 3.0
    _run_for(env, 25.0)
    collector.stop()
    assert [row["t_us"] for row in collector.samples] == [10.0, 20.0]
    assert all(row["queue.depth"] == 3.0 for row in collector.samples)
    assert set(collector.samples[0]) == {"t_us", "queue.depth"}


def test_delta_probe_scales_counter_increases_and_starts_at_zero():
    env = Environment()
    collector = TimeSeriesCollector(env, interval_us=10.0)
    busy = {"us": 100.0}  # pre-existing accumulation must not count
    collector.add_delta_probe("bus.util", lambda: busy["us"], scale=1.0 / 10.0)
    first = collector.sample_now()
    assert first["bus.util"] == 0.0
    busy["us"] += 5.0
    second = collector.sample_now()
    assert second["bus.util"] == pytest.approx(0.5)
    third = collector.sample_now()
    assert third["bus.util"] == 0.0


def test_duplicate_probe_names_are_rejected():
    env = Environment()
    collector = TimeSeriesCollector(env, interval_us=10.0)
    collector.add_probe("a", lambda: 0.0)
    with pytest.raises(ValueError):
        collector.add_probe("a", lambda: 1.0)
    with pytest.raises(ValueError):
        TimeSeriesCollector(env, interval_us=0.0)


def test_ring_is_bounded_and_counts_drops():
    env = Environment()
    collector = TimeSeriesCollector(env, interval_us=10.0, capacity=2)
    collector.add_probe("x", lambda: 1.0)
    for _ in range(5):
        collector.sample_now()
    assert len(collector.samples) == 2
    assert collector.dropped == 3


def test_collector_adds_no_events_until_started():
    # Pay-as-you-go: constructing and probing must not schedule anything;
    # only start() launches the sampling process.
    env = Environment()
    collector = TimeSeriesCollector(env, interval_us=10.0)
    collector.add_probe("x", lambda: 1.0)
    collector.sample_now()
    _run_for(env, 50.0)
    baseline_events = env.events_processed

    env2 = Environment()
    _run_for(env2, 50.0)
    assert baseline_events == env2.events_processed

    collector.start()
    collector.start()  # idempotent: no second process
    _run_for(env, 50.0)
    assert env.events_processed > baseline_events
    assert len(collector.samples) > 1


def test_stop_halts_sampling_at_the_next_tick():
    env = Environment()
    collector = TimeSeriesCollector(env, interval_us=10.0)
    collector.add_probe("x", lambda: 1.0)
    collector.start()
    _run_for(env, 25.0)
    collector.stop()
    _run_for(env, 50.0)
    assert [row["t_us"] for row in collector.samples] == [10.0, 20.0]

