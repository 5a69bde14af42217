"""Unit tests for the metric primitives (counters, gauges, histograms,
and the shared interpolated-percentile implementation)."""

import bisect
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import Counter, Gauge, Histogram, percentile
from repro.obs.metrics import bucket_percentile, labels_key


# ---------------------------------------------------------------------------
# percentile
# ---------------------------------------------------------------------------

def test_percentile_empty_is_zero():
    assert percentile([], 0.5) == 0.0


def test_percentile_single_value():
    assert percentile([7.0], 0.0) == 7.0
    assert percentile([7.0], 0.5) == 7.0
    assert percentile([7.0], 1.0) == 7.0


def test_percentile_endpoints():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 1.0) == 4.0


def test_percentile_exact_rank():
    # fraction 0.5 of five values lands exactly on the middle sample.
    assert percentile([1, 2, 3, 4, 100], 0.5) == 3.0


def test_percentile_interpolates_between_ranks():
    # rank = 0.5 * 3 = 1.5 -> halfway between 2 and 3.
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5


def test_percentile_tail_interpolates_toward_max():
    # The round()-based nearest-rank bug this replaces reported p99 of
    # 1..100 as exactly 99; interpolation lands between 99 and 100.
    values = [float(v) for v in range(1, 101)]
    p99 = percentile(values, 0.99)
    assert 99.0 < p99 < 100.0
    assert p99 == pytest.approx(99.01)


# ---------------------------------------------------------------------------
# Counter
# ---------------------------------------------------------------------------

def test_counter_increments():
    counter = Counter("x")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5.0


def test_counter_rejects_negative():
    counter = Counter("x")
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_counter_export():
    counter = Counter("x")
    counter.inc(3)
    assert counter.export() == {"value": 3.0}


# ---------------------------------------------------------------------------
# Gauge
# ---------------------------------------------------------------------------

def test_gauge_set_inc_dec():
    gauge = Gauge("depth")
    gauge.set(5)
    gauge.inc(2)
    gauge.dec(4)
    assert gauge.value == 3.0


def test_gauge_high_water_mark():
    gauge = Gauge("depth")
    gauge.set(5)
    gauge.set(2)
    assert gauge.value == 2.0
    assert gauge.high_water == 5.0
    assert gauge.export() == {"value": 2.0, "high_water": 5.0}


# ---------------------------------------------------------------------------
# Histogram
# ---------------------------------------------------------------------------

def test_histogram_summary_counts_and_percentiles():
    histogram = Histogram("lat_us")
    for value in [1, 2, 3, 4, 100]:
        histogram.observe(value)
    summary = histogram.summary()
    assert summary["count"] == 5
    assert summary["mean"] == pytest.approx(22.0)
    assert summary["min"] == 1
    assert summary["max"] == 100
    assert summary["p50"] == 3.0


def test_histogram_empty_summary():
    summary = Histogram("lat_us").summary()
    assert summary == {
        "count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
        "p50": 0.0, "p95": 0.0, "p99": 0.0,
    }


def test_histogram_buckets():
    histogram = Histogram("lat_us", buckets=(10.0, 100.0))
    for value in (5, 50, 500):
        histogram.observe(value)
    # One per bucket: <=10, <=100, overflow.
    assert histogram.bucket_counts == [1, 1, 1]
    export = histogram.export()
    assert export["buckets"] == {"le": [10.0, 100.0], "counts": [1, 1, 1]}


def test_histogram_rejects_unsorted_buckets():
    with pytest.raises(ValueError):
        Histogram("lat_us", buckets=(10.0, 5.0))


def test_histogram_unsorted_observations():
    histogram = Histogram("lat_us")
    for value in (9, 1, 5, 3, 7):
        histogram.observe(value)
    assert histogram.percentile(0.5) == 5.0


def test_histogram_sample_cap_keeps_aggregates_exact():
    histogram = Histogram("lat_us", max_samples=10)
    for value in range(100):
        histogram.observe(float(value))
    assert histogram.count == 100
    assert histogram.max_value == 99.0
    assert len(histogram._samples) == 10


def test_histogram_percentiles_answer_from_samples_up_to_the_cap():
    histogram = Histogram("lat_us", buckets=(10.0, 100.0), max_samples=10)
    for value in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 50.0):
        histogram.observe(value)
    assert histogram.count == histogram.max_samples
    assert histogram.percentile_source == "samples"
    assert histogram.percentile(0.5) == 5.5  # exact, from the samples
    assert histogram.export()["percentile_source"] == "samples"


def test_histogram_percentiles_do_not_freeze_past_the_cap():
    """A burst fills the sample cap, then the run settles: p99 must follow
    the run (bucket counts are exact for ever), not the retained prefix."""
    histogram = Histogram("wait_us", buckets=(1.0, 10.0, 100.0, 1000.0), max_samples=10)
    for _ in range(10):
        histogram.observe(222.0)  # the load phase's bursts
    frozen = histogram.percentile(0.99)
    assert frozen == 222.0
    for _ in range(9_990):
        histogram.observe(0.5)  # steady state
    assert len(histogram._samples) == 10 and histogram.count == 10_000
    assert histogram.percentile_source == "buckets"
    # rank 9,900 of 10,000 lies in the first bucket (9,990 values <= 1 us),
    # linear inside it: 0 + (1 - 0) * 9,900 / 9,990.
    assert histogram.percentile(0.99) == pytest.approx(9_900 / 9_990)
    summary = histogram.summary()
    assert summary["p99"] == histogram.percentile(0.99) and summary["p50"] < 1.0
    assert summary["max"] == 222.0  # aggregates were always exact
    export = histogram.export()
    assert export["percentile_source"] == "buckets" and export["p99"] == summary["p99"]
    # The tail beyond the last bound reports the last bound.
    histogram.observe(5_000.0)
    assert histogram.percentile(1.0) == 1000.0


def test_histogram_sample_costs_at_most_12_bytes():
    """A retained sample is 8 bytes in a typed array (a list slot plus a
    float object cost 32)."""
    histogram = Histogram("lat_us")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(100_000):
            histogram.observe(i * 0.25)  # distinct floats only the histogram holds
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert histogram.percentile_source == "samples"
    assert retained / 100_000 <= 12


_FRACTIONS = (0.0, 0.01, 0.25, 0.5, 0.95, 0.99, 0.999, 1.0)
_BOUNDS = (1.0, 10.0, 100.0, 1_000.0)


def _reference(values, max_samples):
    """What a histogram keeping its samples in a plain list reports."""
    retained = sorted(values[:max_samples])
    counts = [0] * (len(_BOUNDS) + 1)
    total = 0.0
    for value in values:
        counts[bisect.bisect_left(_BOUNDS, value)] += 1
        total += value
    source = "buckets" if len(values) > max_samples else "samples"

    def at(fraction):
        if source == "buckets":
            return bucket_percentile(counts, _BOUNDS, fraction)
        return percentile(retained, fraction)

    summary = {
        "count": len(values), "mean": total / len(values),
        "min": min(values), "max": max(values),
        "p50": at(0.50), "p95": at(0.95), "p99": at(0.99),
    }
    export = dict(summary, percentile_source=source,
                  buckets={"le": list(_BOUNDS), "counts": counts})
    return summary, export, source, [at(fraction) for fraction in _FRACTIONS]


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(
        st.one_of(
            st.integers(min_value=-1_000, max_value=10**6),
            st.floats(min_value=-1e6, max_value=1e9, allow_nan=False),
        ),
        min_size=1, max_size=40,
    ),
    max_samples=st.integers(min_value=1, max_value=30),
    read_every=st.integers(min_value=1, max_value=7),
)
def test_histogram_answers_as_a_plain_list_would(values, max_samples, read_every):
    """Unsorted int/float streams, crossing the cap, read mid-stream (a read
    sorts the retained samples; later observations unsort them again)."""
    histogram = Histogram("lat_us", buckets=_BOUNDS, max_samples=max_samples)
    for n, value in enumerate(values, start=1):
        histogram.observe(value)
        if n % read_every and n != len(values):
            continue
        summary, export, source, at = _reference(values[:n], max_samples)
        assert histogram.percentile_source == source
        assert histogram.summary() == summary
        assert histogram.export() == export
        assert [histogram.percentile(fraction) for fraction in _FRACTIONS] == at


# ---------------------------------------------------------------------------
# Labels
# ---------------------------------------------------------------------------

def test_labels_key_is_order_insensitive():
    assert labels_key({"a": 1, "b": 2}) == labels_key({"b": 2, "a": 1})


def test_key_string_formats_labels():
    counter = Counter("kaml.ssd.gets", labels_key({"namespace": 3}))
    assert counter.key_string() == "kaml.ssd.gets{namespace=3}"
    assert Counter("plain").key_string() == "plain"
