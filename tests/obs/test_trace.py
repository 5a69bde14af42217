"""TraceContext span mechanics, the flight-recorder ring, and the Chrome
``trace_event`` export schema."""

import json

import pytest

from repro.obs import (
    Tracer,
    chrome_trace,
    write_chrome_trace,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock=clock)


# ---------------------------------------------------------------------------
# TraceContext
# ---------------------------------------------------------------------------


def test_request_opens_root_span(tracer, clock):
    ctx = tracer.request("kaml.put", namespace=3)
    assert ctx.root is not None
    assert ctx.root.name == "kaml.put"
    assert ctx.root.tags == {"namespace": 3}
    assert ctx.root.parent_id is None
    assert ctx.root.end_us is None  # still open
    clock.now = 10.0
    ctx.close()
    assert ctx.root.end_us == 10.0


def test_implicit_nesting_parents_to_innermost_open_span(tracer, clock):
    ctx = tracer.request("op")
    outer = ctx.begin("outer")
    inner = ctx.begin("inner")
    assert outer.parent_id == ctx.root.span_id
    assert inner.parent_id == outer.span_id
    clock.now = 5.0
    ctx.finish(inner)
    ctx.finish(outer)
    assert inner.duration_us == 5.0


def test_explicit_parent_does_not_join_the_stack(tracer):
    """A span with an explicit non-top parent is a concurrent sibling: the
    next implicit span must not nest under it."""
    ctx = tracer.request("op")
    sibling = ctx.begin("bg.work", parent=ctx.root)
    # sibling passed parent=stack-top, so it *does* nest; detach simulates
    # handing it to a background process.
    ctx.detach(sibling)
    nxt = ctx.begin("fg.work")
    assert nxt.parent_id == ctx.root.span_id  # not sibling's id
    other = ctx.begin("bg.child", parent=sibling)
    assert other.parent_id == sibling.span_id
    after = ctx.begin("fg.more")
    # `other` never joined the stack, so implicit nesting is unaffected.
    assert after.parent_id == nxt.span_id


def test_finish_is_idempotent(tracer, clock):
    ctx = tracer.request("op")
    span = ctx.begin("child")
    clock.now = 4.0
    ctx.finish(span)
    clock.now = 99.0
    ctx.finish(span)  # second finish must not move end or re-record
    assert span.end_us == 4.0
    assert sum(1 for e in tracer.recorder.events() if e.span_id == span.span_id) == 1


def test_close_then_finish_records_once(tracer, clock):
    """close() force-finishing an open span must win over a later finish."""
    ctx = tracer.request("op")
    span = ctx.begin("child")
    clock.now = 7.0
    ctx.close()
    clock.now = 50.0
    ctx.finish(span)
    assert span.end_us == 7.0
    assert sum(1 for e in tracer.recorder.events() if e.span_id == span.span_id) == 1


def test_detached_span_survives_close(tracer, clock):
    """The Put handoff: the committing caller closes its context, but the
    detached background span keeps running and finishes later."""
    ctx = tracer.request("op")
    bg = ctx.begin("put.phase2", parent=ctx.root)
    ctx.detach(bg)
    clock.now = 10.0
    ctx.close()
    assert bg.end_us is None  # close() must not truncate it
    clock.now = 25.0
    ctx.finish(bg)
    assert bg.end_us == 25.0
    assert bg.duration_us == 25.0


def test_span_context_manager_tags_errors(tracer):
    ctx = tracer.request("op")
    with pytest.raises(ValueError):
        with ctx.span("risky") as span:
            raise ValueError("boom")
    assert span.tags["error"] == "ValueError"
    assert span.end_us is not None


def test_record_span_backdates_and_defaults_parent_to_root(tracer, clock):
    ctx = tracer.request("op")
    clock.now = 30.0
    span = ctx.record_span("log.append", start_us=12.0, log=4)
    assert span.start_us == 12.0
    assert span.end_us == 30.0
    assert span.parent_id == ctx.root.span_id
    assert span.tags == {"log": 4}


def test_instant_event_has_zero_duration(tracer, clock):
    ctx = tracer.request("op")
    clock.now = 3.0
    instant = ctx.event("put.ack", namespace=1)
    assert instant.start_us == instant.end_us == 3.0
    assert instant.duration_us == 0.0
    assert instant.parent_id == ctx.root.span_id


def test_trace_ids_are_distinct_and_spans_globally_unique(tracer):
    a = tracer.request("a")
    b = tracer.request("b")
    assert a.trace_id != b.trace_id
    ids = [e.span_id for e in (a.root, b.root, a.begin("x"), b.begin("y"))]
    assert len(set(ids)) == len(ids)


def test_disarmed_tracer_requests_are_free(clock):
    tracer = Tracer(clock=clock)
    tracer.enabled = False
    assert tracer.request("op") is None  # untraced: no context, no span ids
    assert tracer.recorder.recorded == 0
    assert tracer.summary()["traces"] == 0
    tracer.enabled = True
    ctx = tracer.request("op")
    assert ctx.trace_id == 1 and ctx.root.span_id == 1


# ---------------------------------------------------------------------------
# FlightRecorder
# ---------------------------------------------------------------------------


def test_ring_buffer_evicts_oldest_and_counts_drops(clock):
    tracer = Tracer(clock=clock, capacity=4)
    ctx = tracer.request("op")
    for i in range(10):
        clock.now = float(i)
        ctx.record_span(f"s{i}", start_us=float(i))
    recorder = tracer.recorder
    assert len(recorder.events()) == 4
    assert recorder.recorded == 10
    assert recorder.dropped == 6
    assert [e.name for e in recorder.events()] == ["s6", "s7", "s8", "s9"]


def test_window_selects_overlapping_events(tracer, clock):
    ctx = tracer.request("op")
    ctx.record_span("early", start_us=0.0, end_us=5.0)
    ctx.record_span("mid", start_us=8.0, end_us=12.0)
    ctx.record_span("late", start_us=20.0, end_us=22.0)
    names = [e.name for e in tracer.recorder.window(6.0, 15.0)]
    assert names == ["mid"]
    # Overlap is inclusive: a span ending exactly at the window start counts.
    assert [e.name for e in tracer.recorder.window(5.0, 6.0)] == ["early"]


def test_trace_filter_and_clear(tracer, clock):
    a = tracer.request("a")
    b = tracer.request("b")
    a.record_span("x", start_us=0.0, end_us=1.0)
    b.record_span("y", start_us=0.0, end_us=1.0)
    assert {e.trace_id for e in tracer.recorder.trace(a.trace_id)} == {a.trace_id}
    tracer.recorder.clear()
    assert tracer.recorder.events() == []
    assert tracer.recorder.recorded == 0


# ---------------------------------------------------------------------------
# Chrome trace_event export schema (what Perfetto/chrome://tracing accept)
# ---------------------------------------------------------------------------


def _schema_check(payload):
    assert isinstance(payload["traceEvents"], list)
    phases = set()
    for row in payload["traceEvents"]:
        assert isinstance(row["name"], str)
        assert row["ph"] in {"X", "i", "M"}
        assert isinstance(row["pid"], int)
        assert isinstance(row["tid"], int)
        phases.add(row["ph"])
        if row["ph"] == "M":
            continue
        assert isinstance(row["ts"], (int, float))
        assert isinstance(row["args"], dict)
        if row["ph"] == "X":
            assert isinstance(row["dur"], (int, float))
            assert row["dur"] >= 0
        if row["ph"] == "i":
            assert row["s"] in {"t", "p", "g"}
    return phases


def test_chrome_trace_schema(tracer, clock):
    ctx = tracer.request("kaml.put", namespace=1)
    with ctx.span("put.phase1"):
        clock.now = 5.0
        ctx.event("put.ack")
    ctx.close()
    payload = chrome_trace(tracer.recorder.events(), process_name="test")
    phases = _schema_check(payload)
    assert phases == {"M", "X", "i"}  # metadata, slices, and instants all emitted
    # The whole thing must be plain-JSON serializable.
    json.dumps(payload)
    # Span identity survives into args for cross-referencing with JSONL.
    slices = [r for r in payload["traceEvents"] if r["ph"] == "X"]
    assert all("span_id" in r["args"] and "parent_id" in r["args"] for r in slices)


def test_write_chrome_trace_file_is_valid_json(tracer, clock, tmp_path):
    ctx = tracer.request("op")
    clock.now = 2.0
    ctx.close()
    path = tmp_path / "trace.json"
    write_chrome_trace(str(path), tracer.recorder.events())
    payload = json.loads(path.read_text())
    _schema_check(payload)
    assert payload["displayTimeUnit"] == "ms"
