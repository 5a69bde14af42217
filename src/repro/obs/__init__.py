"""Unified observability: metrics, sim-time spans, and exporters.

One :class:`MetricsRegistry` per simulated stack is the single source of
truth for counters (ops, bytes, erases), gauges (queue depths, NVRAM
usage), and histograms (latency phases, GC victim quality).  Spans are
driven by simulated time, never the wall clock.  See the
"Observability" section of docs/internals.md for naming and label
conventions.
"""

from repro.obs.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    labels_key,
    percentile,
)
from repro.obs.registry import MetricsRegistry, lazy_instrument
from repro.obs.export import (
    derived_metrics,
    to_builtin,
    to_json,
    to_text,
    write_json,
)
from repro.obs.trace import (
    FlightRecorder,
    SpanEvent,
    TraceContext,
    Tracer,
    chrome_trace,
    write_chrome_trace,
)
from repro.obs.slo import SloBreach, SloPolicy, SloTracker
from repro.obs.oplog import (
    OpJournal,
    key_fingerprint,
    load_journal,
    mix_summary,
    write_journal,
)
from repro.obs.profile import (
    COMPONENTS,
    KNOWN_SPAN_NAMES,
    SPAN_COMPONENTS,
    analyze,
    collapsed_stacks,
    component_of,
    write_collapsed,
)
from repro.obs.timeseries import TimeSeriesCollector

__all__ = [
    "COMPONENTS",
    "Counter",
    "DEFAULT_BUCKETS",
    "KNOWN_SPAN_NAMES",
    "FlightRecorder",
    "OpJournal",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SloBreach",
    "SloPolicy",
    "SloTracker",
    "SPAN_COMPONENTS",
    "SpanEvent",
    "TimeSeriesCollector",
    "TraceContext",
    "Tracer",
    "analyze",
    "chrome_trace",
    "collapsed_stacks",
    "component_of",
    "derived_metrics",
    "key_fingerprint",
    "labels_key",
    "lazy_instrument",
    "load_journal",
    "mix_summary",
    "percentile",
    "to_builtin",
    "to_json",
    "to_text",
    "write_chrome_trace",
    "write_collapsed",
    "write_journal",
    "write_json",
]
