"""SLO tracking: policies, percentile summaries, and breach dumps.

The end-to-end test is the PR's acceptance criterion: a synthetically
slow Put must trip its SLO and the breach dump must contain the full
causally-linked chain — store entry, firmware phase 1, NVRAM pin,
background phase 2, log append — wired together by parent ids.
"""

from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    SloPolicy,
    SloTracker,
    Tracer,
)
from repro.workloads.oltp import drive


def make_tracker(**kwargs):
    return SloTracker(MetricsRegistry(), Tracer(capacity=256), **kwargs)


# ---------------------------------------------------------------------------
# Policy and recording mechanics
# ---------------------------------------------------------------------------


def test_policy_matching_scopes_by_op_and_namespace():
    any_ns = SloPolicy("put", 100.0)
    one_ns = SloPolicy("put", 100.0, namespace=2)
    assert any_ns.matches("put", 1) and any_ns.matches("put", None)
    assert not any_ns.matches("get", 1)
    assert one_ns.matches("put", 2) and not one_ns.matches("put", 3)


def test_set_slo_replaces_same_scope_only():
    tracker = make_tracker()
    tracker.set_slo("put", 100.0)
    tracker.set_slo("put", 100.0, namespace=1)
    tracker.set_slo("put", 50.0)  # replaces the namespace-wide policy
    policies = {(p.op, p.namespace, p.threshold_us) for p in tracker.policies}
    assert policies == {("put", 1, 100.0), ("put", None, 50.0)}


def test_record_within_threshold_is_not_a_breach():
    tracker = make_tracker()
    tracker.set_slo("put", 100.0)
    assert tracker.record("put", 1, 0.0, 100.0) is None  # exactly at SLO: ok
    assert tracker.breaches == []


def test_record_breach_captures_marker_and_counter():
    tracker = make_tracker()
    tracker.set_slo("put", 100.0)
    breach = tracker.record("put", 1, 10.0, 250.0, trace_id=7)
    assert breach is not None
    assert breach.latency_us == 240.0
    assert breach.threshold_us == 100.0
    assert breach.trace_id == 7
    assert tracker.breaches == [breach]
    counter = tracker.registry.counter("slo.breaches", op="put", namespace="1")
    assert counter.value == 1


def test_breach_retention_cap_counts_overflow():
    tracker = make_tracker(max_breaches=2)
    tracker.set_slo("put", 1.0)
    for i in range(5):
        tracker.record("put", 1, 0.0, 10.0 + i)
    assert len(tracker.breaches) == 2
    assert tracker.overflowed_breaches == 3


def test_namespaceless_op_files_under_all_series():
    tracker = make_tracker()
    tracker.record("txn.commit", None, 0.0, 5.0)
    tracker.record("txn.commit", 3, 0.0, 7.0)
    summary = tracker.latency_summary()
    assert "slo.txn.commit.us{namespace=all}" in summary
    assert "slo.txn.commit.us{namespace=3}" in summary


def test_latency_summary_reports_interpolated_percentiles():
    tracker = make_tracker()
    for latency in range(1, 101):
        tracker.record("get", 1, 0.0, float(latency))
    row = tracker.latency_summary()["slo.get.us{namespace=1}"]
    assert row["count"] == 100.0
    assert 45.0 <= row["p50"] <= 55.0
    assert 95.0 <= row["p99"] <= 100.0
    assert row["p50"] <= row["p99"] <= row["p999"]


def test_breach_dump_merges_trace_and_window():
    clock = {"now": 0.0}
    tracer = Tracer(clock=lambda: clock["now"], capacity=256)
    tracker = SloTracker(MetricsRegistry(), tracer, window_slack_us=5.0)
    tracker.set_slo("put", 1.0)
    slow = tracer.request("slow.put")
    clock["now"] = 50.0
    slow.close()
    # A different trace far outside the breach window must not leak in.
    clock["now"] = 8_000.0
    other = tracer.request("unrelated")
    clock["now"] = 9_000.0
    other.close()
    breach = tracker.record("put", 1, 0.0, 50.0, trace_id=slow.trace_id)
    dump = tracker.breach_dump(breach)
    names = [event["name"] for event in dump["events"]]
    assert "slow.put" in names
    assert "unrelated" not in names
    assert dump["breach"]["latency_us"] == 50.0


def test_breach_dump_reads_the_recorder_the_tracer_holds_now():
    # Profilers swap in a larger ring after construction; the dump must
    # read that ring, not the one the device was built with.
    from repro.config import ReproConfig
    from repro.kaml import KamlSsd, PutItem
    from repro.sim import Environment

    env = Environment()
    ssd = KamlSsd(env, ReproConfig())
    ssd.tracer.recorder = FlightRecorder(capacity=1024)
    ssd.slo.set_slo("put", 0.0)

    def scenario():
        namespace_id = yield from ssd.create_namespace()
        yield from ssd.put([PutItem(namespace_id, 1, "v", 512)])
        yield from ssd.drain()

    drive(env, scenario())
    assert ssd.tracer.recorder.events()
    events = ssd.slo.dump_breaches()[0]["events"]
    assert {event["name"] for event in events} >= {"kaml.put", "put.phase1"}


# ---------------------------------------------------------------------------
# Acceptance criterion: slow Put -> breach dump with the causal chain
# ---------------------------------------------------------------------------


def test_slow_put_breach_dumps_causally_linked_chain():
    from repro.harness.runner import build_kaml_store

    env, ssd, store = build_kaml_store(cache_bytes=1 << 20)

    def scenario():
        namespace_id = yield from ssd.create_namespace()
        # Any real Put is "slow" against a sub-microsecond objective.
        ssd.slo.set_slo("put", 0.001)
        yield from store.put(namespace_id, 42, ("slow", 42), 512)
        yield from ssd.drain()
        yield from ssd.drain()
        return namespace_id

    drive(env, scenario())

    assert len(ssd.slo.breaches) >= 1
    breach = ssd.slo.breaches[0]
    assert breach.op == "put"
    dump = ssd.slo.breach_dump(breach)
    events = dump["events"]
    assert len(events) > 0

    by_id = {event["span_id"]: event for event in events}
    by_name = {}
    for event in events:
        by_name.setdefault(event["name"], []).append(event)

    # Every stage of the two-phase Put shows up in the dump.
    for name in (
        "store.put",
        "kaml.put",
        "put.phase1",
        "put.nvram_reserve",
        "put.ack",
        "put.nvram_pin",
        "put.phase2",
        "log.append",
        "put.install",
    ):
        assert name in by_name, f"missing span {name!r} in breach dump"

    def parent_name(event):
        parent = by_id.get(event["parent_id"])
        return parent["name"] if parent else None

    # The causal chain: store entry -> firmware -> phase 1 -> ack, with
    # the NVRAM pin and background phase 2 hanging off the firmware span
    # and the log append inside phase 2.
    assert parent_name(by_name["kaml.put"][0]) == "store.put"
    assert parent_name(by_name["put.phase1"][0]) == "kaml.put"
    assert parent_name(by_name["put.nvram_reserve"][0]) == "put.phase1"
    assert parent_name(by_name["put.ack"][0]) == "kaml.put"
    assert parent_name(by_name["put.nvram_pin"][0]) == "kaml.put"
    assert parent_name(by_name["put.phase2"][0]) == "kaml.put"
    assert parent_name(by_name["log.append"][0]) == "put.phase2"
    assert parent_name(by_name["put.install"][0]) == "put.phase2"

    # All chain events share the breach's trace id.
    chain_ids = {event["trace_id"] for event in events}
    assert breach.trace_id in chain_ids

    # Causality in time: the ack (logical commit) happens before the
    # background phases complete.
    ack_ts = by_name["put.ack"][0]["start_us"]
    assert by_name["put.phase2"][0]["end_us"] >= ack_ts
    assert by_name["put.nvram_pin"][0]["end_us"] >= ack_ts
