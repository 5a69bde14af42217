"""Request-scoped tracing and the flight recorder.

The :class:`~repro.obs.registry.MetricsRegistry` answers *how much* and
*how long on average*; this module answers *why was this one command
slow*.  A :class:`TraceContext` is created at a request's entry point
(``libkaml`` cache call, firmware ``Put``/``Get``, a GC pass) and is
threaded explicitly through every layer the request touches.  Each layer
opens :class:`SpanEvent` spans against the context, so a single ``Put``
yields a causally-linked tree::

    kaml.put                      (root: command arrival to mapping install)
      put.phase1                  (host-visible latency: transfer to ack)
        put.transfer
        put.nvram_reserve
        put.index_probe
      put.ack                     (instant: logical commit)
      put.nvram_pin               (NVRAM held: reserve to release)
      put.phase2                  (background: flash programs + installs)
        log.append  [log=3]
        put.install

All times are *simulated* microseconds (the tracer is built with the sim
clock); spans survive process interleaving because parentage is explicit,
never inferred from a global stack across yields.

Completed spans land in a :class:`FlightRecorder` — a bounded ring that
cheaply retains the last N events so the window around any anomaly (an
SLO breach, a GC stall) can be dumped after the fact as a Chrome
``trace_event`` file loadable in Perfetto / ``chrome://tracing``, or as
export dicts in an SLO breach dump.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Callable, Dict, Iterable, List, Optional

#: Span phases mirrored into the Chrome export: complete slices and
#: zero-duration instants (GC relocations, Put acks).
PHASE_SPAN = "span"
PHASE_INSTANT = "instant"


class SpanEvent:
    """One span (or instant event) of one trace."""

    __slots__ = (
        "trace_id", "span_id", "parent_id", "name",
        "start_us", "end_us", "tags", "phase",
    )

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start_us: float,
        end_us: Optional[float] = None,
        tags: Optional[Dict[str, Any]] = None,
        phase: str = PHASE_SPAN,
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_us = start_us
        self.end_us = end_us
        self.tags = tags if tags is not None else {}
        self.phase = phase

    @property
    def duration_us(self) -> float:
        return (self.end_us - self.start_us) if self.end_us is not None else 0.0

    def overlaps(self, start_us: float, end_us: float) -> bool:
        """Does this span intersect the closed window [start_us, end_us]?"""
        span_end = self.end_us if self.end_us is not None else self.start_us
        return self.start_us <= end_us and span_end >= start_us

    def export(self) -> Dict[str, Any]:
        """JSON-ready dict (deterministic through ``json.dumps`` sorting)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "phase": self.phase,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "duration_us": self.duration_us,
            "tags": dict(self.tags),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SpanEvent {self.name} trace={self.trace_id} span={self.span_id} "
            f"[{self.start_us:.1f}, {self.end_us}]>"
        )


class _OpenSpan:
    """Context manager wrapping one span of a :class:`TraceContext`."""

    __slots__ = ("_ctx", "event")

    def __init__(self, ctx: "TraceContext", event: SpanEvent):
        self._ctx = ctx
        self.event = event

    def __enter__(self) -> SpanEvent:
        return self.event

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:
            self.event.tags.setdefault("error", type(exc).__name__)
        self._ctx.finish(self.event)
        return None


class TraceContext:
    """One request's identity plus its open-span state.

    Spans parent to the innermost open span *of this context* unless an
    explicit ``parent=`` is given; concurrent sibling work (parallel log
    appends inside one ``Put``) must pass its parent explicitly, because
    sibling generators interleave at yields and a stack would mis-nest
    them.  Contexts are cheap plain objects threaded by argument — never
    ambient/global state — which is what keeps causality exact under the
    simulator's cooperative concurrency.
    """

    __slots__ = ("tracer", "trace_id", "name", "root", "_stack")

    def __init__(self, tracer: "Tracer", trace_id: int, name: str):
        self.tracer = tracer
        self.trace_id = trace_id
        self.name = name
        self.root: Optional[SpanEvent] = None
        self._stack: List[SpanEvent] = []

    # -- span lifecycle --------------------------------------------------

    def begin(
        self,
        name: str,
        parent: Optional[SpanEvent] = None,
        start_us: Optional[float] = None,
        **tags: Any,
    ) -> SpanEvent:
        """Open a span; the caller must :meth:`finish` it."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        event = SpanEvent(
            trace_id=self.trace_id,
            span_id=self.tracer._next_span_id(),
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            start_us=self.tracer.clock() if start_us is None else start_us,
            tags=tags,
        )
        if self.root is None:
            self.root = event
        if parent is None or (self._stack and parent is self._stack[-1]):
            self._stack.append(event)
        return event

    def finish(self, event: SpanEvent, end_us: Optional[float] = None) -> SpanEvent:
        """Close a span and commit it to the flight recorder.

        Idempotent: a span force-closed by :meth:`close` and later
        finished by the process that opened it records exactly once.
        """
        if event.end_us is not None:
            return event
        event.end_us = self.tracer.clock() if end_us is None else end_us
        # Tolerate out-of-order closes: remove wherever it sits.
        for index in range(len(self._stack) - 1, -1, -1):
            if self._stack[index] is event:
                del self._stack[index]
                break
        self.tracer._record(event)
        return event

    def detach(self, event: SpanEvent) -> None:
        """Remove an open span from the implicit-nesting stack without
        finishing it.

        Used when a span is handed off to a background process (a Put's
        phases 2–3 outliving the committing transaction): the owner's
        :meth:`close` must not truncate it, and the background process
        calls :meth:`finish` when the work really ends.
        """
        for index in range(len(self._stack) - 1, -1, -1):
            if self._stack[index] is event:
                del self._stack[index]
                break

    def span(
        self, name: str, parent: Optional[SpanEvent] = None, **tags: Any
    ) -> _OpenSpan:
        """``with ctx.span("put.transfer"): ...`` — span over the body."""
        return _OpenSpan(self, self.begin(name, parent=parent, **tags))

    def record_span(
        self,
        name: str,
        start_us: float,
        end_us: Optional[float] = None,
        parent: Optional[SpanEvent] = None,
        **tags: Any,
    ) -> SpanEvent:
        """Commit an already-elapsed interval (e.g. an NVRAM pin whose
        start predates the process that learns its end)."""
        event = SpanEvent(
            trace_id=self.trace_id,
            span_id=self.tracer._next_span_id(),
            parent_id=(parent or self.root).span_id
            if (parent or self.root) is not None else None,
            name=name,
            start_us=start_us,
            end_us=self.tracer.clock() if end_us is None else end_us,
            tags=tags,
        )
        self.tracer._record(event)
        return event

    def event(
        self, name: str, parent: Optional[SpanEvent] = None, **tags: Any
    ) -> SpanEvent:
        """Zero-duration instant (Put ack, GC relocation of one record)."""
        now = self.tracer.clock()
        if parent is None:
            parent = self._stack[-1] if self._stack else self.root
        instant = SpanEvent(
            trace_id=self.trace_id,
            span_id=self.tracer._next_span_id(),
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            start_us=now,
            end_us=now,
            tags=tags,
            phase=PHASE_INSTANT,
        )
        self.tracer._record(instant)
        return instant

    def close(self) -> None:
        """Finish every span still open on this context (root last)."""
        while self._stack:
            self.finish(self._stack[-1])

    # -- context-manager sugar ------------------------------------------

    def __enter__(self) -> "TraceContext":
        if self.root is None:
            self.begin(self.name)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
        return None


class FlightRecorder:
    """Bounded ring buffer of completed :class:`SpanEvent` records.

    Retention is O(1) per event (a ``deque`` with ``maxlen``); the cost of
    keeping the recorder always-on is two attribute writes per span, so it
    stays enabled even in benchmark runs.  ``window``/``trace`` carve out
    the events around an anomaly after the fact.
    """

    def __init__(self, capacity: int = 16384):
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = capacity
        self._events: "deque[SpanEvent]" = deque(maxlen=capacity)
        self.recorded = 0  # total ever recorded, including evicted

    def record(self, event: SpanEvent) -> None:
        self._events.append(event)
        self.recorded += 1

    @property
    def dropped(self) -> int:
        return self.recorded - len(self._events)

    def events(self) -> List[SpanEvent]:
        return list(self._events)

    def window(self, start_us: float, end_us: float) -> List[SpanEvent]:
        """Every retained event overlapping [start_us, end_us]."""
        return [e for e in self._events if e.overlaps(start_us, end_us)]

    def trace(self, trace_id: int) -> List[SpanEvent]:
        """Every retained event of one trace, in completion order."""
        return [e for e in self._events if e.trace_id == trace_id]

    def clear(self) -> None:
        self._events.clear()
        self.recorded = 0


def chrome_trace(
    events: Iterable[SpanEvent], process_name: str = "repro"
) -> Dict[str, Any]:
    """Events as a Chrome ``trace_event`` JSON object (Perfetto-loadable).

    Complete spans become ``"ph": "X"`` slices and instants become
    ``"ph": "i"`` markers; each trace id gets its own track (``tid``) so
    a request's spans stack vertically in the viewer.  Timestamps are
    already microseconds — the unit ``trace_event`` expects.
    """
    trace_events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": process_name},
        },
    ]
    for event in events:
        common = {
            "name": event.name,
            "cat": event.name.split(".", 1)[0],
            "ts": event.start_us,
            "pid": 1,
            "tid": event.trace_id,
            "args": {
                "span_id": event.span_id,
                "parent_id": event.parent_id,
                **{str(k): v for k, v in event.tags.items()},
            },
        }
        if event.phase == PHASE_INSTANT:
            trace_events.append({**common, "ph": "i", "s": "t"})
        else:
            trace_events.append({**common, "ph": "X", "dur": event.duration_us})
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str, events: Iterable[SpanEvent], process_name: str = "repro"
) -> None:
    with open(path, "w") as handle:
        json.dump(chrome_trace(events, process_name=process_name),
                  handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")


class Tracer:
    """Factory for trace contexts; owns the flight recorder.

    One tracer per simulated stack, created by the stack root alongside
    its :class:`MetricsRegistry` and driven by the same sim clock.  The
    tracer does *not* feed histograms — the registry's explicit
    ``observe`` calls remain the single source of metric truth — it only
    preserves the causal event stream.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        recorder: Optional[FlightRecorder] = None,
        capacity: int = 16384,
    ):
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.recorder = recorder if recorder is not None else FlightRecorder(capacity)
        self.enabled = True
        self._trace_counter = 0
        self._span_counter = 0

    def _next_span_id(self) -> int:
        self._span_counter += 1
        return self._span_counter

    def _record(self, event: SpanEvent) -> None:
        if self.enabled:
            self.recorder.record(event)

    def request(self, name: str, **tags: Any) -> Optional[TraceContext]:
        """New trace with an open root span named ``name``.

        When the tracer is disarmed (``enabled = False``) this returns
        None, the one spelling of "untraced": every layer takes
        ``ctx=None`` and guards its span calls with ``ctx is not None``.
        Hot paths read ``enabled`` themselves and skip this call.
        """
        if not self.enabled:
            return None
        self._trace_counter += 1
        ctx = TraceContext(self, self._trace_counter, name)
        ctx.begin(name, **tags)
        return ctx

    # -- post-run reporting ---------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Per-span-name aggregate over the retained window."""
        by_name: Dict[str, Dict[str, float]] = {}
        for event in self.recorder.events():
            row = by_name.setdefault(event.name, {"count": 0, "total_us": 0.0, "max_us": 0.0})
            row["count"] += 1
            row["total_us"] += event.duration_us
            if event.duration_us > row["max_us"]:
                row["max_us"] = event.duration_us
        for row in by_name.values():
            row["mean_us"] = row["total_us"] / row["count"] if row["count"] else 0.0
        return {
            "spans": by_name,
            "recorded": self.recorder.recorded,
            "retained": len(self.recorder.events()),
            "dropped": self.recorder.dropped,
            "traces": self._trace_counter,
        }
