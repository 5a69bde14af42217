"""Metric primitives: counters, gauges, histograms, and shared percentile math.

Every instrument belongs to a :class:`~repro.obs.registry.MetricsRegistry`
and is identified by a *name* plus a *label set* (``namespace=3``,
``log=7``, ``channel=0`` ...).  Instruments with the same name but
different labels form a family: per-namespace bandwidth, per-log append
counts, and per-channel queue depths are all one family each, split by
label.

Naming convention (see docs/internals.md, "Observability"):

* dotted lowercase paths, ``<layer>.<component>.<measure>``
  (``kaml.put.phase1_us``, ``cache.hit``, ``ftl.gc.erased_blocks``);
* time-valued histograms end in ``_us`` (simulated microseconds);
* byte-valued counters end in ``_bytes``.
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, List, Optional, Sequence, Tuple

LabelsKey = Tuple[Tuple[str, object], ...]


def labels_key(labels: Dict[str, object]) -> LabelsKey:
    """Canonical, hashable form of a label mapping."""
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linearly interpolated percentile of pre-sorted ``sorted_values``.

    Nearest-rank via ``round()`` misreports tail percentiles on small
    samples (p99 of 100 points lands on the 99th value instead of
    interpolating toward the max); this is the one shared implementation
    used by :meth:`Histogram.summary` and ``repro.analysis.stats``.
    """
    if not sorted_values:
        return 0.0
    if fraction <= 0.0:
        return float(sorted_values[0])
    if fraction >= 1.0:
        return float(sorted_values[-1])
    rank = fraction * (len(sorted_values) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(sorted_values) - 1)
    weight = rank - lower
    return sorted_values[lower] + (sorted_values[upper] - sorted_values[lower]) * weight


def bucket_percentile(
    counts: Sequence[int], bounds: Sequence[float], fraction: float
) -> float:
    """Percentile from histogram bucket counts, linear inside the bucket.

    Resolution is the bucket width; the first bucket starts at zero and
    the overflow bucket reports the last bound.
    """
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = fraction * total
    seen = 0
    for i, n in enumerate(counts):
        if n and seen + n >= rank:
            low = bounds[i - 1] if i > 0 else 0.0
            high = bounds[i] if i < len(bounds) else bounds[-1]
            return low + (high - low) * (rank - seen) / n
        seen += n
    return float(bounds[-1])


#: Default histogram bucket upper bounds, in the unit of the observed
#: value (microseconds for ``_us`` histograms).  Roughly logarithmic,
#: spanning sub-microsecond firmware steps to multi-millisecond GC stalls.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1_000.0, 2_000.0, 5_000.0, 10_000.0, 50_000.0, 100_000.0,
)


class Instrument:
    """Base class: a named, labelled metric."""

    kind = "instrument"

    __slots__ = ("name", "labels")

    def __init__(self, name: str, labels: LabelsKey = ()):
        self.name = name
        self.labels = labels

    @property
    def label_dict(self) -> Dict[str, object]:
        return dict(self.labels)

    def key_string(self) -> str:
        """``name{k=v,...}`` identity used by the exporters."""
        if not self.labels:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in self.labels)
        return f"{self.name}{{{inner}}}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.key_string()}>"


class Counter(Instrument):
    """A monotonically increasing count (events, bytes, records)."""

    kind = "counter"

    __slots__ = ("value",)

    def __init__(self, name: str, labels: LabelsKey = ()):
        super().__init__(name, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount

    def export(self) -> Dict[str, object]:
        return {"value": self.value}


class Gauge(Instrument):
    """A value that goes up and down; tracks its high-water mark."""

    kind = "gauge"

    __slots__ = ("value", "high_water")

    def __init__(self, name: str, labels: LabelsKey = ()):
        super().__init__(name, labels)
        self.value = 0.0
        self.high_water = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self.value - amount)

    def export(self) -> Dict[str, object]:
        return {"value": self.value, "high_water": self.high_water}


class PolledGauge(Instrument):
    """A gauge whose owner keeps the level itself and is asked on read.

    For levels that change on a hot path (the simulator's event-queue
    depth moves twice per event): the owner tracks the value and the
    high-water mark in plain attributes and ``read`` returns both, so
    nothing is paid per change and readers still see exact numbers.
    """

    kind = "gauge"

    __slots__ = ("_read",)

    def __init__(
        self, name: str, labels: LabelsKey, read: Callable[[], Tuple[float, float]]
    ):
        super().__init__(name, labels)
        self._read = read

    @property
    def value(self) -> float:
        return self._read()[0]

    @property
    def high_water(self) -> float:
        return self._read()[1]

    def export(self) -> Dict[str, object]:
        value, high_water = self._read()
        return {"value": value, "high_water": high_water}


class Histogram(Instrument):
    """Fixed-bucket histogram that also keeps raw samples for percentiles.

    Bucket counts give the coarse shape cheaply; the retained samples give
    exact interpolated percentiles.  ``max_samples`` caps memory for long
    runs: bucket counts and running aggregates stay exact for ever, and
    once an observation has gone unretained the percentiles are
    interpolated from the bucket counts (:func:`bucket_percentile`) rather
    than answered from a prefix of the run; :attr:`percentile_source` and
    :meth:`export` say which of the two answered.
    """

    kind = "histogram"

    __slots__ = (
        "bounds", "bucket_counts", "count", "total",
        "min_value", "max_value", "_samples", "_sorted", "max_samples",
    )

    def __init__(
        self,
        name: str,
        labels: LabelsKey = (),
        buckets: Optional[Sequence[float]] = None,
        max_samples: int = 200_000,
    ):
        super().__init__(name, labels)
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name} bucket bounds must be sorted")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +1 overflow bucket
        self.count = 0
        self.total = 0.0
        self.min_value = float("inf")
        self.max_value = float("-inf")
        self._samples: List[float] = []
        self._sorted = True
        self.max_samples = max_samples

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        if self.count <= self.max_samples:  # i.e. len(self._samples) < max_samples
            if self._samples and value < self._samples[-1]:
                self._sorted = False
            self._samples.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def _sorted_samples(self) -> List[float]:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        return self._samples

    @property
    def percentile_source(self) -> str:
        """``"samples"`` while every observation is retained, else ``"buckets"``."""
        return "buckets" if self.count > len(self._samples) else "samples"

    def percentile(self, fraction: float) -> float:
        if self.percentile_source == "buckets":
            return bucket_percentile(self.bucket_counts, self.bounds, fraction)
        return percentile(self._sorted_samples(), fraction)

    def summary(self) -> Dict[str, float]:
        """Count/mean/min/max plus interpolated p50/p95/p99."""
        if not self.count:
            return {
                "count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0,
            }
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min_value,
            "max": self.max_value,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }

    def export(self) -> Dict[str, object]:
        data: Dict[str, object] = dict(self.summary())
        data["percentile_source"] = self.percentile_source
        data["buckets"] = {
            "le": list(self.bounds),
            "counts": list(self.bucket_counts),
        }
        return data
