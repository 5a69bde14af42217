"""The metrics registry: one source of truth per simulated stack.

A :class:`MetricsRegistry` owns every instrument of one system under
test (a KAML SSD plus its caching layer, or a baseline block device).
Components reach it through their stack root (``ssd.metrics``,
``device.ftl.metrics``) so benchmarks, tests, and exporters all read the
same numbers.

Spans measure *simulated* time: the registry is constructed with a clock
callable (``lambda: env.now``), never the wall clock.  ``with
registry.span("ftl.gc.relocate"):`` records the elapsed sim-time into a
histogram of the same name and appends a trace record with parent
linkage, so nested spans reconstruct where a command's latency went.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    Instrument,
    LabelsKey,
    PolledGauge,
    labels_key,
)


def lazy_instrument(kind: str, name: str) -> cached_property:
    """Class attribute for the unlabelled instrument ``name`` of
    ``self.metrics``: resolved by the first access, a plain attribute read
    after that.  Lazy because an eager, never-touched instrument would
    still show in every registry export."""
    return cached_property(lambda self: getattr(self.metrics, kind)(name))


@dataclass
class SpanRecord:
    """One completed (or open) span in the trace buffer."""

    name: str
    labels: Dict[str, object] = field(default_factory=dict)
    start_us: float = 0.0
    end_us: Optional[float] = None
    parent: Optional["SpanRecord"] = None
    depth: int = 0

    @property
    def duration_us(self) -> float:
        return (self.end_us - self.start_us) if self.end_us is not None else 0.0

    def export(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "start_us": self.start_us,
            "end_us": self.end_us,
            "duration_us": self.duration_us,
            "parent": self.parent.name if self.parent is not None else None,
            "depth": self.depth,
        }


class _Span:
    """Context manager returned by :meth:`MetricsRegistry.span`."""

    __slots__ = ("_registry", "record")

    def __init__(self, registry: "MetricsRegistry", record: SpanRecord):
        self._registry = registry
        self.record = record

    def __enter__(self) -> SpanRecord:
        self._registry._open_span(self.record)
        return self.record

    def __exit__(self, exc_type, exc, tb) -> None:
        self._registry._close_span(self.record)
        return None


class MetricsRegistry:
    """Named, labelled instruments plus a sim-time span/trace API."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        max_trace_records: int = 10_000,
    ):
        self.clock = clock if clock is not None else (lambda: 0.0)
        self._instruments: Dict[Tuple[str, LabelsKey], Instrument] = {}
        self._kinds: Dict[str, str] = {}
        self.max_trace_records = max_trace_records
        self.traces: List[SpanRecord] = []
        self.dropped_traces = 0
        #: Open spans, innermost last.  The simulation kernel interleaves
        #: processes only at yields, so spans that do not yield nest
        #: perfectly; spans enclosing yields may close out of LIFO order,
        #: which is tolerated (parentage is fixed at enter time).
        self._span_stack: List[SpanRecord] = []

    # ------------------------------------------------------------------
    # Instrument access (create-on-first-use)
    # ------------------------------------------------------------------

    def _get(self, factory, name: str, labels: Dict[str, object], **kwargs) -> Instrument:
        key = (name, labels_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            kind = self._kinds.get(name)
            if kind is not None and kind != factory.kind:
                raise ValueError(
                    f"metric {name!r} already registered as a {kind}, "
                    f"not a {factory.kind}"
                )
            self._kinds[name] = factory.kind
            instrument = factory(name, key[1], **kwargs)
            self._instruments[key] = instrument
        elif instrument.kind != factory.kind:
            raise ValueError(
                f"metric {name!r} already registered as a {instrument.kind}, "
                f"not a {factory.kind}"
            )
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def polled_gauge(
        self, name: str, read: Callable[[], Tuple[float, float]], **labels
    ) -> PolledGauge:
        """A gauge read on demand: ``read()`` returns ``(value, high_water)``.

        ``gauge(name)`` returns the same instrument afterwards.
        """
        return self._get(PolledGauge, name, labels, read=read)

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None, **labels
    ) -> Histogram:
        if buckets is not None:
            return self._get(Histogram, name, labels, buckets=buckets)
        return self._get(Histogram, name, labels)

    def observe(self, name: str, value: float, **labels) -> None:
        """Shorthand for ``histogram(name, **labels).observe(value)``."""
        self.histogram(name, **labels).observe(value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def instruments(self, prefix: str = "") -> Iterator[Instrument]:
        """All instruments whose name starts with ``prefix``, sorted."""
        for (name, _labels), instrument in sorted(self._instruments.items()):
            if name.startswith(prefix):
                yield instrument

    def family(self, name: str) -> Dict[LabelsKey, Instrument]:
        """Every labelled instrument of one metric name."""
        return {
            labels: instrument
            for (metric, labels), instrument in self._instruments.items()
            if metric == name
        }

    def value(self, name: str, **labels) -> float:
        """Scalar value of a counter/gauge, 0.0 if never touched."""
        instrument = self._instruments.get((name, labels_key(labels)))
        return instrument.value if instrument is not None else 0.0

    def total(self, name: str, **labels) -> float:
        """Sum of a counter family's values across every label set whose
        labels are a superset of ``labels`` (e.g. all namespaces)."""
        want = set(labels.items())
        result = 0.0
        for instrument in self.family(name).values():
            if want <= set(instrument.labels):
                result += instrument.value
        return result

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def span(self, name: str, **labels) -> _Span:
        """Sim-time span: ``with registry.span("kaml.put.phase1_us"): ...``

        On exit the elapsed simulated time is observed into the histogram
        named ``name`` (same labels) and the span lands in the trace
        buffer with its parent at enter time.
        """
        return _Span(self, SpanRecord(name=name, labels=dict(labels)))

    def _open_span(self, record: SpanRecord) -> None:
        record.start_us = self.clock()
        if self._span_stack:
            record.parent = self._span_stack[-1]
            record.depth = record.parent.depth + 1
        self._span_stack.append(record)
        if len(self.traces) < self.max_trace_records:
            self.traces.append(record)
        else:
            self.dropped_traces += 1

    def _close_span(self, record: SpanRecord) -> None:
        record.end_us = self.clock()
        # Tolerate out-of-LIFO closes from interleaved sim processes.
        for index in range(len(self._span_stack) - 1, -1, -1):
            if self._span_stack[index] is record:
                del self._span_stack[index]
                break
        self.histogram(record.name, **record.labels).observe(record.duration_us)

    @property
    def active_spans(self) -> List[SpanRecord]:
        return list(self._span_stack)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Drop every instrument and trace (benchmark warmup boundary)."""
        self._instruments.clear()
        self._kinds.clear()
        self.traces.clear()
        self.dropped_traces = 0
        self._span_stack.clear()
