"""Op journal: schema, capacity accounting, streaming, and capture hooks."""

import pytest

from repro.harness.runner import build_kaml_ssd, build_kaml_store
from repro.kaml import NamespaceAttributes, PutItem
from repro.obs.oplog import (
    OpJournal,
    OpJournalError,
    key_fingerprint,
    load_journal,
    mix_summary,
    parse_journal,
    write_journal,
)


def drive(env, generator):
    process = env.process(generator)
    env.run_until(process)
    return process.value


def make_namespace(env, ssd, **kwargs):
    def create():
        namespace_id = yield from ssd.create_namespace(
            NamespaceAttributes(**kwargs)
        )
        return namespace_id

    return drive(env, create())


def test_key_fingerprint_is_identity_for_ints():
    assert key_fingerprint(42) == 42
    assert key_fingerprint(2**64 + 5) == 5  # masked to 64 bits
    # Non-integer keys hash stably.
    assert key_fingerprint("abc") == key_fingerprint("abc")
    assert key_fingerprint("abc") != key_fingerprint("abd")


def test_record_assigns_sequential_op_ids_and_counts():
    journal = OpJournal()
    first = journal.record("get", 1, 10, 0, 0.0, 1.0, outcome="absent")
    second = journal.record("put", 1, 10, 512, 1.0, 2.0)
    assert (first, second) == (1, 2)
    assert journal.counts()["recorded"] == 2
    assert journal.rows[0]["outcome"] == "absent"
    assert journal.rows[1]["op"] == "put"


def test_capacity_drops_are_counted_not_silent():
    journal = OpJournal(capacity=2)
    assert journal.record("get", 1, 1, 0, 0.0, 1.0) == 1
    assert journal.record("get", 1, 2, 0, 1.0, 2.0) == 2
    assert journal.record("get", 1, 3, 0, 2.0, 3.0) == 0  # dropped
    counts = journal.counts()
    assert counts["recorded"] == 2
    assert counts["dropped"] == 1
    assert len(journal.rows) == 2


def test_record_batch_heads_and_members():
    journal = OpJournal()
    head = journal.record_batch(
        [("put", 1, 10, 512), ("delete", 1, 11, 0)], 0.0, 5.0
    )
    assert head == 1
    rows = journal.rows
    assert [row["op"] for row in rows] == ["put", "delete"]  # a tombstone member
    # Head row keeps batch=0 (readers normalize to its own op_id);
    # members carry the head id.
    assert rows[0]["batch"] == 0
    assert rows[1]["batch"] == head


@pytest.mark.parametrize("suffix", [".jsonl", ".jsonl.gz"])
def test_streaming_round_trip(tmp_path, suffix):
    path = str(tmp_path / f"journal{suffix}")
    with OpJournal(path=path) as journal:
        journal.record("put", 1, 7, 128, 0.0, 3.0)
        journal.record("get", 1, 7, 128, 3.0, 4.0)
    rows = load_journal(path)
    assert [row["op"] for row in rows] == ["put", "get"]
    assert rows[0]["key_hash"] == 7
    assert rows[1]["op_id"] == 2


def test_write_journal_and_header_validation(tmp_path):
    path = str(tmp_path / "synth.jsonl")
    rows = [
        {"op_id": 1, "op": "get", "layer": "ssd", "ns": 1, "key_hash": 3,
         "size": 0, "issue_us": 0.0, "ack_us": None, "outcome": None,
         "trace_id": 0},
    ]
    assert write_journal(path, rows) == 1
    assert load_journal(path) == rows


def test_parse_journal_rejects_newer_major():
    with pytest.raises(OpJournalError):
        parse_journal(['{"kamltrace": 2}', "{}"])


@pytest.mark.parametrize("version", ['"x"', "null", "[1]"])
def test_parse_journal_rejects_non_numeric_header(version):
    with pytest.raises(OpJournalError, match="line 1"):
        parse_journal(['{"kamltrace": %s}' % version, "{}"])


def test_mix_summary_handles_synthetic_acks():
    rows = [
        {"op": "put", "layer": "ssd", "ns": 1, "key_hash": 1, "size": 64,
         "issue_us": 0.0, "ack_us": None},
        {"op": "get", "layer": "ssd", "ns": 1, "key_hash": 2, "size": 0,
         "issue_us": 10.0, "ack_us": None},
    ]
    summary = mix_summary(rows)
    assert summary["ops"] == {"put": 1, "get": 1}
    assert summary["working_set"] == 2
    assert summary["span_us"] == 10.0  # bounded by issue times, not -inf


def test_ssd_hooks_capture_every_op_kind():
    env, ssd = build_kaml_ssd()
    journal = ssd.enable_oplog()
    namespace_id = make_namespace(
        env, ssd, expected_keys=64, index_structure="sorted"
    )

    def work():
        yield from ssd.put([
            PutItem(namespace_id, 1, ("v", 1), 100),
            PutItem(namespace_id, 2, ("v", 2), 100),
        ])
        yield from ssd.get_record(namespace_id, 1)
        yield from ssd.get_record(namespace_id, 99)  # absent
        yield from ssd.scan(namespace_id, 1, 2)
        yield from ssd.delete(namespace_id, 2)

    drive(env, work())
    by_op = {}
    for row in journal.rows:
        by_op.setdefault(row["op"], []).append(row)
    assert len(by_op["put"]) == 2      # one batch, two rows
    assert by_op["put"][1]["batch"] == by_op["put"][0]["op_id"]
    outcomes = [row["outcome"] for row in by_op["get"]]
    assert outcomes == ["ok", "absent"]
    assert by_op["scan"][0]["key2"] == 2
    assert by_op["delete"][0]["outcome"] == "ok"
    # ack_us never precedes issue_us on a real capture.
    assert all(row["ack_us"] >= row["issue_us"] for row in journal.rows)


def test_store_layer_rows_are_separate_from_device_rows():
    env, ssd, store = build_kaml_store(cache_bytes=1 << 20)
    journal = ssd.enable_oplog()
    namespace_id = make_namespace(env, ssd, expected_keys=64)

    def work():
        yield from store.put(namespace_id, 5, ("v", 5), 64)
        yield from store.get(namespace_id, 5)  # cache hit: no ssd row

    drive(env, work())
    layers = [(row["layer"], row["op"]) for row in journal.rows]
    assert ("ssd", "put") in layers
    assert ("store", "put") in layers
    assert ("store", "get") in layers
    assert ("ssd", "get") not in layers  # the hit never reached the device


def test_transactional_ops_are_journaled_at_the_store_layer():
    # OLTP/YCSB run phases speak the transactional API; without these
    # rows a captured read-heavy run would journal as pure puts.
    env, ssd, store = build_kaml_store(cache_bytes=1 << 20)
    journal = ssd.enable_oplog()
    namespace_id = make_namespace(env, ssd, expected_keys=64)

    def body(txn):
        yield from store.transaction_insert(txn, namespace_id, 7, ("v", 7), 64)
        hit = yield from store.transaction_read(txn, namespace_id, 7)
        miss = yield from store.transaction_read(txn, namespace_id, 8)
        return hit, miss

    def work():
        result = yield from store.run_transaction(body)
        return result

    hit, miss = drive(env, work())
    assert miss is None
    store_rows = [
        (row["op"], row["key_hash"], row["outcome"])
        for row in journal.rows if row["layer"] == "store"
    ]
    assert ("put", 7, "ok") in store_rows        # staged insert
    assert ("get", 8, "absent") in store_rows    # read miss
    # The workspace-served read of key 7 never left the host: at most
    # the lock-path read is journaled, never a duplicate per serve.
    assert store_rows.count(("get", 7, "ok")) <= 1


def test_disabled_capture_records_nothing():
    env, ssd = build_kaml_ssd()
    namespace_id = make_namespace(env, ssd, expected_keys=64)

    def work():
        yield from ssd.put([PutItem(namespace_id, 1, ("v", 1), 64)])
        yield from ssd.get_record(namespace_id, 1)

    drive(env, work())
    assert ssd.oplog is None


def test_slo_breach_carries_op_id():
    env, ssd = build_kaml_ssd()
    ssd.enable_oplog()
    ssd.slo.set_slo("put", 0.001)  # everything breaches
    namespace_id = make_namespace(env, ssd, expected_keys=64)

    def work():
        yield from ssd.put([PutItem(namespace_id, 1, ("v", 1), 64)])

    drive(env, work())
    assert ssd.slo.breaches
    breach = ssd.slo.breaches[0]
    assert breach.op_id > 0
    matching = [r for r in ssd.oplog.rows if r["op_id"] == breach.op_id]
    assert matching and matching[0]["op"] == "put"
