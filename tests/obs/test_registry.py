"""Unit tests for the registry: instrument families, label filtering,
and the JSON exporters."""

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    derived_metrics,
    to_builtin,
    to_json,
)


# ---------------------------------------------------------------------------
# Instrument access
# ---------------------------------------------------------------------------

def test_create_on_first_use_returns_same_instrument():
    registry = MetricsRegistry()
    first = registry.counter("x", log=1)
    first.inc(3)
    assert registry.counter("x", log=1) is first
    assert registry.value("x", log=1) == 3.0


def test_labels_split_families():
    registry = MetricsRegistry()
    registry.counter("kaml.ssd.gets", namespace=1).inc(2)
    registry.counter("kaml.ssd.gets", namespace=2).inc(5)
    assert registry.value("kaml.ssd.gets", namespace=1) == 2.0
    assert registry.value("kaml.ssd.gets", namespace=2) == 5.0
    assert registry.total("kaml.ssd.gets") == 7.0
    assert len(registry.family("kaml.ssd.gets")) == 2


def test_total_filters_by_label_superset():
    registry = MetricsRegistry()
    registry.counter("bytes", log=1, stream="host").inc(10)
    registry.counter("bytes", log=2, stream="host").inc(20)
    registry.counter("bytes", log=1, stream="gc").inc(5)
    assert registry.total("bytes", stream="host") == 30.0
    assert registry.total("bytes", stream="gc") == 5.0
    assert registry.total("bytes", log=1) == 15.0
    assert registry.total("bytes") == 35.0


def test_kind_clash_raises():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(ValueError):
        registry.gauge("x")
    with pytest.raises(ValueError):
        registry.histogram("x")


def test_value_of_untouched_metric_is_zero():
    assert MetricsRegistry().value("nothing") == 0.0


def test_instruments_prefix_filter():
    registry = MetricsRegistry()
    registry.counter("kaml.ssd.gets")
    registry.counter("kaml.ssd.puts")
    registry.counter("ftl.host_reads")
    names = [i.name for i in registry.instruments("kaml.")]
    assert names == ["kaml.ssd.gets", "kaml.ssd.puts"]


def test_observe_shorthand():
    registry = MetricsRegistry()
    registry.observe("lat_us", 5.0, log=1)
    assert registry.histogram("lat_us", log=1).count == 1


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------

def _populated_registry():
    registry = MetricsRegistry()
    registry.counter("kaml.log.append_bytes", stream="host").inc(100)
    registry.counter("kaml.log.append_bytes", stream="gc").inc(50)
    registry.counter("cache.hits").inc(8)
    registry.counter("cache.misses").inc(2)
    registry.gauge("sim.queue_depth").set(4)
    registry.observe("kaml.put.phase1_us", 10.0)
    return registry


def test_derived_metrics():
    derived = derived_metrics(_populated_registry())
    assert derived["kaml.gc.write_amplification"] == pytest.approx(1.5)
    assert derived["cache.hit_rate"] == pytest.approx(0.8)


def test_derived_metrics_absent_without_inputs():
    assert derived_metrics(MetricsRegistry()) == {}


def test_to_builtin_sections():
    payload = to_builtin(_populated_registry())
    assert payload["counters"]["cache.hits"]["value"] == 8.0
    assert payload["gauges"]["sim.queue_depth"]["high_water"] == 4.0
    histogram = payload["histograms"]["kaml.put.phase1_us"]
    assert histogram["count"] == 1
    assert "buckets" in histogram
    assert payload["derived"]["kaml.gc.write_amplification"] == pytest.approx(1.5)


def test_to_json_round_trips():
    decoded = json.loads(to_json(_populated_registry()))
    assert decoded["counters"]["kaml.log.append_bytes{stream=gc}"]["value"] == 50.0
    assert set(decoded) == {"counters", "gauges", "histograms", "derived"}
