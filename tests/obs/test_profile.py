"""kamlprof attribution: span trees, sibling clamping, Put phase clipping,
the component taxonomy, and the collapsed-stack export."""

import pytest

from repro.obs import Tracer
from repro.obs.profile import (
    COMPONENTS,
    KNOWN_SPAN_NAMES,
    REQUEST_ROOTS,
    SPAN_COMPONENTS,
    analyze,
    build_trace_trees,
    collapsed_lines,
    collapsed_stacks,
    component_of,
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


def _components_us(report, op, namespace="1"):
    bucket = report["requests"][op][namespace]
    return {comp: row["us"] for comp, row in bucket["components"].items()}


# ---------------------------------------------------------------------------
# Taxonomy invariants
# ---------------------------------------------------------------------------


def test_every_span_name_maps_to_a_registered_component():
    for name, component in SPAN_COMPONENTS.items():
        assert component in COMPONENTS, (name, component)


def test_request_roots_are_registered_span_names():
    assert REQUEST_ROOTS <= KNOWN_SPAN_NAMES


def test_component_tag_overrides_the_name_mapping(tracer, clock):
    ctx = tracer.request("kaml.get", namespace=1)
    clock.now = 10.0
    span = ctx.begin("get.dispatch", component="gc_wait")
    clock.now = 20.0
    ctx.finish(span)
    ctx.close()
    events = {e.name: e for e in tracer.recorder.events()}
    assert component_of(events["get.dispatch"]) == "gc_wait"
    # An unregistered override falls back to the per-name mapping.
    events["get.dispatch"].tags["component"] = "not_a_component"
    assert component_of(events["get.dispatch"]) == "firmware_cpu"


# ---------------------------------------------------------------------------
# Attribution mechanics
# ---------------------------------------------------------------------------


def test_fractions_sum_to_one_and_self_time_lands_on_parent(tracer, clock):
    ctx = tracer.request("kaml.get", namespace=1)
    clock.now = 10.0
    span = ctx.begin("get.flash_read", parent=ctx.root)
    clock.now = 60.0
    ctx.finish(span)
    clock.now = 100.0
    ctx.close()
    report = analyze(tracer.recorder.events())
    components = _components_us(report, "kaml.get")
    assert components == {"nand_read": 50.0, "firmware_cpu": 50.0}
    fractions = report["requests"]["kaml.get"]["1"]["components"]
    assert sum(row["fraction"] for row in fractions.values()) == pytest.approx(
        1.0, abs=1e-9
    )


def test_concurrent_siblings_claim_in_start_order_without_double_count(
    tracer, clock
):
    # Two overlapping children of one 100us request: [10, 60) and
    # [40, 90).  The earlier sibling claims its full interval; the later
    # one only gets the leftover [60, 90) — never the shared 20us twice.
    ctx = tracer.request("kaml.get", namespace=1)
    clock.now = 10.0
    first = ctx.begin("get.index_probe", parent=ctx.root)
    clock.now = 40.0
    second = ctx.begin("get.flash_read", parent=ctx.root)
    clock.now = 60.0
    ctx.finish(first)
    clock.now = 90.0
    ctx.finish(second)
    clock.now = 100.0
    ctx.close()
    report = analyze(tracer.recorder.events())
    components = _components_us(report, "kaml.get")
    assert components["index_cpu"] == pytest.approx(50.0)
    assert components["nand_read"] == pytest.approx(30.0)
    assert components["firmware_cpu"] == pytest.approx(20.0)
    assert sum(components.values()) == pytest.approx(100.0)


def test_backdated_record_span_claims_its_wait_window(tracer, clock):
    # The instrumentation records wait spans after the fact:
    # record_span("bus.wait", start_us=queued) at grant time.
    ctx = tracer.request("kaml.get", namespace=1)
    clock.now = 30.0
    ctx.record_span("bus.wait", start_us=5.0, parent=ctx.root)
    clock.now = 40.0
    ctx.close()
    report = analyze(tracer.recorder.events())
    components = _components_us(report, "kaml.get")
    assert components["bus_wait"] == pytest.approx(25.0)
    assert components["firmware_cpu"] == pytest.approx(15.0)


def test_detached_put_phases_do_not_count_against_the_ack_window(
    tracer, clock
):
    # A two-phase Put: phase 1 spans [0, 50) and acks; phases 2/3 and
    # the NVRAM pin run detached until t=200.  The host-visible latency
    # is 50us and the background work must not leak into it.
    ctx = tracer.request("kaml.put", namespace=1)
    put_span = ctx.root
    phase1 = ctx.begin("put.phase1", parent=put_span)
    clock.now = 10.0
    reserve = ctx.begin("put.nvram_reserve", parent=phase1)
    clock.now = 30.0
    ctx.finish(reserve)
    clock.now = 50.0
    ctx.finish(phase1)
    ctx.detach(put_span)
    ctx.close()
    phase2 = ctx.begin("put.phase2", parent=put_span, start_us=50.0)
    clock.now = 200.0
    ctx.finish(phase2)
    ctx.record_span("put.nvram_pin", start_us=10.0, parent=put_span)
    ctx.finish(put_span)
    report = analyze(tracer.recorder.events())
    bucket = report["requests"]["kaml.put"]["1"]
    assert bucket["count"] == 1
    assert bucket["mean_us"] == pytest.approx(50.0)
    components = {c: row["us"] for c, row in bucket["components"].items()}
    # Only phase-1 work: reservation wait + phase-1 self-time.  No
    # background, no pin, nothing from [50, 200).
    assert components == {
        "nvram_wait": pytest.approx(20.0),
        "firmware_cpu": pytest.approx(30.0),
    }
    assert sum(components.values()) == pytest.approx(50.0)


def test_orphaned_parent_makes_the_span_a_root(tracer, clock):
    # A child whose parent fell out of the recorder ring still profiles:
    # it becomes a root of its trace.
    ctx = tracer.request("store.put", namespace=1)
    child = ctx.begin("kaml.put", parent=ctx.root, namespace=1)
    clock.now = 40.0
    ctx.finish(child)
    ctx.close()
    events = [e for e in tracer.recorder.events() if e.name == "kaml.put"]
    trees = build_trace_trees(events)
    roots = trees[events[0].trace_id]
    assert [node.event.name for node in roots] == ["kaml.put"]
    report = analyze(events)
    assert report["requests"]["kaml.put"]["1"]["count"] == 1


def test_non_request_roots_aggregate_as_background(tracer, clock):
    ctx = tracer.request("kaml.gc", log=0)
    clock.now = 10.0
    erase = ctx.begin("gc.erase", parent=ctx.root)
    clock.now = 40.0
    ctx.finish(erase)
    clock.now = 50.0
    ctx.close()
    report = analyze(tracer.recorder.events())
    assert report["requests"] == {}
    bucket = report["background"]["kaml.gc"]
    assert bucket["count"] == 1
    assert bucket["components"]["nand_erase"]["us"] == pytest.approx(30.0)
    assert bucket["components"]["gc_wait"]["us"] == pytest.approx(20.0)


def test_exemplars_are_slowest_first_and_bounded(tracer, clock):
    for index in range(4):
        clock.now = float(100 * index)
        ctx = tracer.request("kaml.get", namespace=1)
        clock.now += 10.0 * (index + 1)
        ctx.close()
    report = analyze(tracer.recorder.events(), top_n=2)
    latencies = [row["latency_us"] for row in report["exemplars"]]
    assert latencies == [40.0, 30.0]


# ---------------------------------------------------------------------------
# The collapsed-stack export
# ---------------------------------------------------------------------------


def test_collapsed_stacks_weight_self_time_in_nanoseconds(tracer, clock):
    ctx = tracer.request("kaml.get", namespace=1)
    clock.now = 10.0
    span = ctx.begin("get.flash_read", parent=ctx.root)
    clock.now = 60.0
    ctx.finish(span)
    clock.now = 100.0
    ctx.close()
    stacks = collapsed_stacks(tracer.recorder.events())
    assert stacks == {
        "kaml.get": 50_000,
        "kaml.get;get.flash_read": 50_000,
    }
    lines = collapsed_lines(stacks)
    assert lines == [
        "kaml.get 50000",
        "kaml.get;get.flash_read 50000",
    ]
    for line in lines:
        stack, weight = line.rsplit(" ", 1)
        assert stack
        assert int(weight) > 0
