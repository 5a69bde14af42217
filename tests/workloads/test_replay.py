"""kamltrace replay engine: parsing, both loop modes, synth generators."""

import pytest

from repro.harness.runner import build_kaml_ssd, build_kaml_store
from repro.kaml import NamespaceAttributes, PutItem
from repro.workloads.replay import (
    ReplayError,
    SYNTH_GENERATORS,
    journal_to_issues,
    prepare_namespaces,
    replay_journal,
    synth_diurnal,
    synth_flashcrowd,
    synth_hotkey,
)


def drive(env, generator):
    process = env.process(generator)
    env.run_until(process)
    return process.value


def row(op_id, op, key, size=0, layer="ssd", **extra):
    """One hand-written journal row in namespace 1."""
    return dict({
        "op_id": op_id, "op": op, "layer": layer, "ns": 1, "key_hash": key,
        "size": size, "issue_us": 0.0, "batch": 0,
    }, **extra)


def capture_small_run(scan=False):
    """A fixed mini-workload captured through the real hooks."""
    env, ssd = build_kaml_ssd()
    journal = ssd.enable_oplog()

    def create():
        namespace_id = yield from ssd.create_namespace(NamespaceAttributes(
            expected_keys=64,
            index_structure="sorted" if scan else "bucket",
        ))
        return namespace_id

    namespace_id = drive(env, create())

    def work():
        yield from ssd.put([
            PutItem(namespace_id, 1, ("v", 1), 128),
            PutItem(namespace_id, 2, ("v", 2), 128),
        ])
        yield from ssd.put([PutItem(namespace_id, 3, ("v", 3), 64)])
        yield from ssd.get_record(namespace_id, 1)
        if scan:
            yield from ssd.scan(namespace_id, 1, 3)
        yield from ssd.delete(namespace_id, 3)

    drive(env, work())
    return list(journal.rows)


def test_journal_to_issues_regroups_batches():
    rows = capture_small_run()
    issues = journal_to_issues(rows)
    ops = [(issue.op, len(issue.items)) for issue in issues]
    assert ops == [("put", 2), ("put", 1), ("get", 1), ("delete", 1)]
    # The two-record batch survived as one atomic issue.
    assert issues[0].items == ((1, 1, 128), (1, 2, 128))


def test_journal_to_issues_filters_layer():
    rows = capture_small_run()
    for row in rows:
        assert row["layer"] == "ssd"
    assert journal_to_issues(rows, layer="store") == []


def test_journal_to_issues_rejects_unknown_ops():
    with pytest.raises(ReplayError):
        journal_to_issues([
            {"op": "compact", "layer": "ssd", "ns": 1, "key_hash": 0,
             "issue_us": 0.0, "op_id": 1}
        ])


@pytest.mark.parametrize("op, field, value", [
    ("put", "issue_us", "soon"),
    ("put", "size", "big"),
    ("put", "batch", "head"),
    ("put", "op_id", "first"),  # read because batch=0 means "my own id"
    ("scan", "key2", "end"),
    ("get", "ns", None),
])
def test_journal_to_issues_rejects_non_numeric_fields(op, field, value):
    bad = row(2, op, 2)
    bad[field] = value
    with pytest.raises(ReplayError, match="row 2"):
        journal_to_issues([row(1, "get", 1), bad])


def test_closed_loop_replay_reproduces_op_sequence():
    rows = capture_small_run(scan=True)
    env, ssd = build_kaml_ssd()
    mapping = prepare_namespaces(env, ssd, rows)
    recapture = ssd.enable_oplog()
    issues = journal_to_issues(rows)
    result = replay_journal(
        env, ssd, issues, namespace_map=mapping, mode="closed", threads=1
    )
    assert result.ops == len(issues)
    original = [(r["op"], r["key_hash"], r["size"]) for r in rows]
    replayed = [(r["op"], r["key_hash"], r["size"]) for r in recapture.rows]
    assert replayed == original


def test_closed_loop_replay_over_several_lanes():
    rows = [row(key + 1, "put", key, 256) for key in range(24)]
    env, ssd = build_kaml_ssd()
    mapping = prepare_namespaces(env, ssd, rows)
    recapture = ssd.enable_oplog()
    result = replay_journal(
        env, ssd, journal_to_issues(rows), namespace_map=mapping, threads=4
    )
    assert result.ops == 24
    assert result.elapsed_us > 0
    assert len(result.latencies_us) == 24
    # Every issue ran exactly once, whatever order the lanes interleaved.
    assert sorted(r["key_hash"] for r in recapture.rows) == list(range(24))


def test_replay_end_state_after_delete():
    rows = [
        row(1, "put", 1, 256), row(2, "put", 2, 256),
        row(3, "delete", 1), row(4, "get", 2),
    ]
    env, ssd = build_kaml_ssd()
    mapping = prepare_namespaces(env, ssd, rows)
    result = replay_journal(env, ssd, journal_to_issues(rows), namespace_map=mapping)
    assert result.ops == 4

    def check():
        yield from ssd.drain()
        one = yield from ssd.get(mapping[1], 1)
        two = yield from ssd.get(mapping[1], 2)
        return one, two

    assert drive(env, check()) == (None, ("replay", 2))


def test_store_layer_replayed_delete_drops_the_cached_copy():
    rows = [
        row(1, "put", 5, 64, layer="store"),
        row(2, "delete", 5, layer="store"),
    ]
    env, ssd, store = build_kaml_store(cache_bytes=1 << 20)
    mapping = prepare_namespaces(env, ssd, rows, layer="store")
    replay_journal(
        env, store, journal_to_issues(rows, layer="store"), namespace_map=mapping
    )

    def check():
        device = yield from ssd.get(mapping[1], 5)
        cached = yield from store.get(mapping[1], 5)
        return device, cached

    assert drive(env, check()) == (None, None)


def test_prepare_namespaces_sizes_and_sorts():
    rows = capture_small_run(scan=True)
    env, ssd = build_kaml_ssd()
    mapping = prepare_namespaces(env, ssd, rows)
    assert set(mapping) == {1}
    # The journal had scans, so the recreated namespace supports them.
    new_ns = mapping[1]

    def work():
        yield from ssd.put([PutItem(new_ns, 5, ("v", 5), 16)])
        results = yield from ssd.scan(new_ns, 0, 10)
        return results

    results = drive(env, work())
    assert [key for key, _value in results] == [5]


def test_open_loop_honors_gaps_and_speed():
    # Two puts 1000us apart: open-loop replay at speed 1 must take at
    # least the recorded gap; speed 10 compresses it.
    rows = [
        {"op": "put", "layer": "ssd", "ns": 1, "key_hash": 1, "size": 64,
         "issue_us": 0.0, "op_id": 1, "batch": 0},
        {"op": "put", "layer": "ssd", "ns": 1, "key_hash": 2, "size": 64,
         "issue_us": 1000.0, "op_id": 2, "batch": 0},
    ]
    timings = {}
    for speed in (1.0, 10.0):
        env, ssd = build_kaml_ssd()
        mapping = prepare_namespaces(env, ssd, rows)
        result = replay_journal(
            env, ssd, journal_to_issues(rows),
            namespace_map=mapping, mode="open", speed=speed,
        )
        assert result.ops == 2
        timings[speed] = result.elapsed_us
    assert timings[1.0] >= 1000.0
    assert timings[10.0] < timings[1.0]


def test_store_layer_replay_targets_the_cache_api():
    env, ssd, store = build_kaml_store(cache_bytes=1 << 20)
    journal = ssd.enable_oplog()

    def create():
        namespace_id = yield from ssd.create_namespace(
            NamespaceAttributes(expected_keys=64)
        )
        return namespace_id

    namespace_id = drive(env, create())

    def work():
        yield from store.put(namespace_id, 9, ("v", 9), 64)
        yield from store.get(namespace_id, 9)

    drive(env, work())
    rows = list(journal.rows)

    env2, ssd2, store2 = build_kaml_store(cache_bytes=1 << 20)
    mapping = prepare_namespaces(env2, ssd2, rows, layer="store")
    issues = journal_to_issues(rows, layer="store")
    result = replay_journal(env2, store2, issues, namespace_map=mapping)
    assert result.ops == 2
    assert ssd2.metrics.total("kaml.ssd.puts") >= 1


def test_replay_rejects_bad_configuration():
    env, ssd = build_kaml_ssd()
    with pytest.raises(ReplayError):
        replay_journal(env, ssd, [], mode="sideways")
    with pytest.raises(ReplayError):
        replay_journal(env, ssd, [], threads=0)
    with pytest.raises(ReplayError):
        replay_journal(env, ssd, [], speed=0.0)


@pytest.mark.parametrize("name", sorted(SYNTH_GENERATORS))
def test_synth_generators_are_seed_deterministic(name):
    generator = SYNTH_GENERATORS[name]
    rows_a = generator(100, 32, seed=3)
    rows_b = generator(100, 32, seed=3)
    rows_c = generator(100, 32, seed=4)
    assert rows_a == rows_b
    assert rows_a != rows_c
    assert len(rows_a) == 100
    assert [row["op_id"] for row in rows_a] == list(range(1, 101))
    for row in rows_a:
        assert row["op"] in ("get", "put")
        assert row["ack_us"] is None
        assert row["issue_us"] >= 0.0
    issues = [row["issue_us"] for row in rows_a]
    assert issues == sorted(issues)  # arrivals are monotonic


@pytest.mark.parametrize("generator, kwargs", [
    (synth_hotkey, {"hot_keys": 0}),
    (synth_diurnal, {"period_us": 0.0}),
    (synth_flashcrowd, {"crowd_keys": 11}),
])
def test_synth_generators_refuse_bad_arguments(generator, kwargs):
    with pytest.raises(ReplayError):
        generator(10, 10, **kwargs)


def test_synth_hotkey_concentrates_traffic():
    rows = synth_hotkey(500, 1000, hot_fraction=0.9, hot_keys=4, seed=1)
    hot = sum(1 for row in rows if row["key_hash"] < 4)
    assert hot > 400  # ~90% of 500


def test_synth_diurnal_rate_swings():
    rows = synth_diurnal(
        400, 64, period_us=100_000.0, peak_gap_us=10.0,
        trough_gap_us=1000.0, seed=2,
    )
    # Arrivals near the activity peak are much denser than near the
    # trough: compare op counts in the first vs second quarter-period.
    trough = sum(1 for r in rows if r["issue_us"] < 25_000.0)
    peak = sum(
        1 for r in rows if 25_000.0 <= r["issue_us"] < 75_000.0
    )
    assert peak > trough


def test_synth_flashcrowd_spikes():
    rows = synth_flashcrowd(
        400, 256, base_gap_us=100.0, crowd_at_us=5_000.0,
        crowd_duration_us=2_000.0, crowd_gap_us=2.0, crowd_keys=3, seed=3,
    )
    in_crowd = [
        r for r in rows if 5_000.0 <= r["issue_us"] < 7_000.0
    ]
    outside = [r for r in rows if r["issue_us"] < 5_000.0]
    assert len(in_crowd) > len(outside)  # the spike dominates its window
    assert all(r["key_hash"] < 3 for r in in_crowd)


def test_synth_journals_replay_end_to_end():
    rows = synth_hotkey(60, 16, seed=9)
    env, ssd = build_kaml_ssd()
    mapping = prepare_namespaces(env, ssd, rows)
    result = replay_journal(
        env, ssd, journal_to_issues(rows), namespace_map=mapping,
        mode="open", speed=4.0,
    )
    assert result.ops == 60
