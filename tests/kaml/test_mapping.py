"""A bare Mapping, no device behind it: the install rule, snapshots,
relocation, and valid-byte accounting against ``references()``."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import sanitize
from repro.config import ReproConfig
from repro.errors import InvariantError
from repro.flash import PagePointer
from repro.kaml.mapping import Mapping
from repro.kaml.namespace import Namespace, NamespaceAttributes
from repro.kaml.put import PutItem, StagedBatch
from repro.kaml.read import resolve, staged_keys
from repro.kaml.record import TOMBSTONE, Record, RecordLocation
from repro.kaml.snapshot import Snapshot, clone_index
from repro.obs import MetricsRegistry
from repro.sim import Environment

CONFIG = ReproConfig.small()
NCHUNKS = 2
NBYTES = NCHUNKS * CONFIG.geometry.chunk_size


@pytest.fixture(autouse=True)
def no_flash_sanitizers():
    """SAN-OOB inspects flash pages, and a bare mapping has no flash; the
    accounting oracle is called explicitly instead."""
    sanitize.set_enabled(False)
    yield
    sanitize.set_enabled(None)


def add_namespace(mapping, namespace_id):
    attributes = NamespaceAttributes(expected_keys=64)
    index = Namespace.build_index(attributes, CONFIG.kaml.index_bucket_slots)
    namespace = Namespace(namespace_id, attributes, index, [0])
    mapping.namespaces[namespace_id] = namespace
    return namespace


def make_mapping():
    env = Environment()
    mapping = Mapping(env, CONFIG, None, None, MetricsRegistry())
    return mapping, add_namespace(mapping, 1)


def at(block, page=0):
    return RecordLocation(PagePointer(0, 0, block, page), 0, NCHUNKS)


def value(key, seq, namespace_id=1):
    return Record(namespace_id, key, ("v", seq), 100, seq=seq)


def marker(key, seq, namespace_id=1):
    return Record(namespace_id, key, TOMBSTONE, 0, seq=seq)


def current(mapping, namespace, key):
    _staged, location, _probes = resolve(mapping, namespace, key, mapping.epoch)
    return location


def readable(mapping, namespace, key):
    """Would a Get find ``key``?  A staged tombstone hides an indexed copy."""
    staged, location, _probes = resolve(mapping, namespace, key, mapping.epoch)
    return location is not None if staged is None else staged[1] is not TOMBSTONE


@pytest.mark.parametrize("arrival", [(1, 2), (2, 1)])
def test_newer_value_wins_in_either_arrival_order(arrival):
    mapping, namespace = make_mapping()
    for seq in arrival:
        mapping.install(value(7, seq), at(block=seq))
    assert current(mapping, namespace, 7) == at(block=2)
    assert mapping.valid_bytes((0, 0, 1)) == 0  # never counted, or retired
    assert mapping.valid_bytes((0, 0, 2)) == NBYTES
    sanitize.check_accounting(mapping)


@pytest.mark.parametrize("arrival", [("value", "marker"), ("marker", "value")])
@pytest.mark.parametrize("newest", ["value", "marker"])
def test_value_and_tombstone_order_by_version_not_arrival(newest, arrival):
    mapping, namespace = make_mapping()
    seq = {"value": 2, "marker": 1} if newest == "value" else {"value": 1, "marker": 2}
    records = {"value": value(7, seq["value"]), "marker": marker(7, seq["marker"])}
    places = {"value": at(block=1), "marker": at(block=2)}
    for kind in arrival:
        mapping.install(records[kind], places[kind])
    loser = "marker" if newest == "value" else "value"
    assert current(mapping, namespace, 7) == (places["value"] if newest == "value" else None)
    assert mapping.is_valid(records[newest], places[newest])
    assert not mapping.is_valid(records[loser], places[loser])
    assert mapping.valid_bytes_total() == NBYTES  # exactly the winner's copy
    sanitize.check_accounting(mapping)


def test_commit_stages_until_the_install_lands():
    mapping, namespace = make_mapping()
    batch = StagedBatch("put", [PutItem(1, 7, "a", 100), PutItem(1, 8, "b", 100)])
    records = mapping.commit(batch)
    assert batch.versions == [record.seq for record in records] == [1, 2]
    assert resolve(mapping, namespace, 7, mapping.epoch)[0] == (1, "a", 100)
    assert resolve(mapping, namespace, 8, mapping.epoch)[0] == (2, "b", 100)
    assert sorted(staged_keys(mapping, 1)) == [7, 8]
    mapping.install(records[0], at(block=1))
    assert resolve(mapping, namespace, 7, mapping.epoch)[:2] == (None, at(block=1))
    assert mapping.staged_count == 1
    # A batch that already carries versions keeps them and stages nothing.
    replayed = StagedBatch("put", [PutItem(1, 9, "c", 100)], versions=[40])
    assert [record.seq for record in mapping.commit(replayed)] == [40]
    assert mapping.staged_count == 1
    [marker_8] = mapping.commit(delete_batch(8))
    assert marker_8.seq == 41  # resumed above the replay


def test_snapshot_keeps_the_old_copy_valid_until_released():
    mapping, namespace = make_mapping()
    mapping.install(value(7, 1), at(block=1))
    mapping.add_snapshot(Snapshot(5, 1, clone_index(namespace.index)))
    mapping.install(value(7, 2), at(block=2))
    assert mapping.valid_bytes((0, 0, 1)) == NBYTES
    assert mapping.is_valid(value(7, 1), at(block=1))  # GC must keep it
    sanitize.check_accounting(mapping)
    mapping.drop_snapshot(5)
    assert mapping.valid_bytes((0, 0, 1)) == 0
    assert not mapping.is_valid(value(7, 1), at(block=1))
    sanitize.check_accounting(mapping)


def test_relocate_repoints_every_referencing_table_and_refuses_a_stale_old():
    mapping, namespace = make_mapping()
    mapping.install(value(7, 1), at(block=1))
    mapping.install(marker(8, 2), at(block=1, page=1))
    snapshot = Snapshot(5, 1, clone_index(namespace.index))
    mapping.add_snapshot(snapshot)
    assert mapping.relocate(value(7, 1), at(block=1), at(block=3))
    assert current(mapping, namespace, 7) == at(block=3)
    assert snapshot.index.lookup(7)[0] == at(block=3)
    assert mapping.relocate(marker(8, 2), at(block=1, page=1), at(block=3, page=1))
    assert mapping.valid_bytes((0, 0, 1)) == 0
    assert mapping.valid_bytes((0, 0, 3)) == 3 * NBYTES  # table + snapshot + marker
    assert not mapping.relocate(value(7, 1), at(block=1), at(block=4))
    assert not mapping.relocate(marker(8, 2), at(block=1, page=1), at(block=4))
    assert mapping.valid_bytes((0, 0, 4)) == 0
    sanitize.check_accounting(mapping)


def delete_batch(key):
    """An unversioned one-tombstone Put batch: a Delete of ``key``."""
    return StagedBatch("put", [PutItem(1, key, TOMBSTONE, 0)])


def test_commit_delete_reports_existence_and_keeps_the_older_marker():
    mapping, namespace = make_mapping()
    mapping.install(value(7, 1), at(block=1))
    existed = readable(mapping, namespace, 7)
    [first] = mapping.commit(delete_batch(7))
    assert existed and not readable(mapping, namespace, 7)  # staged, not installed
    mapping.install(first, at(block=2))
    assert current(mapping, namespace, 7) is None
    existed_again = readable(mapping, namespace, 7)
    [second] = mapping.commit(delete_batch(7))
    assert not existed_again and second.seq > first.seq
    assert mapping.is_valid(first, at(block=2))  # until the new marker lands
    mapping.install(second, at(block=3))
    assert not mapping.is_valid(first, at(block=2))
    sanitize.check_accounting(mapping)


def live_pages(mapping):
    """``{page: valid bytes}`` of every page that still holds some."""
    return {page: n for page, n in mapping.valid_bytes_by_page().items() if n}


def page(block, index=0):
    return PagePointer(0, 0, block, index)


def test_page_counts_follow_installs_markers_snapshots_and_relocations():
    mapping, namespace = make_mapping()
    mapping.install(value(7, 1), at(block=1))
    mapping.install(marker(8, 2), at(block=1, page=1))
    assert live_pages(mapping) == {page(1): NBYTES, page(1, 1): NBYTES}
    assert mapping.page_live(page(1)) and not mapping.page_live(page(1, 2))
    mapping.add_snapshot(Snapshot(5, 1, clone_index(namespace.index)))
    assert live_pages(mapping)[page(1)] == 2 * NBYTES  # table + snapshot
    mapping.install(value(7, 3), at(block=2))  # the snapshot keeps the old copy
    assert live_pages(mapping) == {page(1): NBYTES, page(1, 1): NBYTES, page(2): NBYTES}
    assert mapping.relocate(value(7, 1), at(block=1), at(block=3))
    assert not mapping.page_live(page(1))
    assert mapping.relocate(marker(8, 2), at(block=1, page=1), at(block=3, page=1))
    assert live_pages(mapping) == {page(2): NBYTES, page(3): NBYTES, page(3, 1): NBYTES}
    sanitize.check_accounting(mapping)
    mapping.drop_snapshot(5)
    mapping.install(value(8, 4), at(block=2, page=1))  # outranks the marker
    assert live_pages(mapping) == {page(2): NBYTES, page(2, 1): NBYTES}
    sanitize.check_accounting(mapping)
    mapping.drop_namespace(1)
    assert live_pages(mapping) == {}
    sanitize.check_accounting(mapping)


def test_block_erased_and_clear_forget_page_counts():
    mapping, _ = make_mapping()
    mapping.install(value(7, 1), at(block=1))
    mapping.install(value(8, 2), at(block=1, page=CONFIG.geometry.pages_per_block - 1))
    mapping.install(value(9, 3), at(block=2))
    mapping.block_erased((0, 0, 1))
    assert mapping.valid_bytes_by_page() == {page(2): NBYTES}
    mapping.clear()
    assert mapping.valid_bytes_by_page() == {}
    assert not mapping.page_live(page(2))


def test_clear_drops_the_pre_erase_barrier_waits_without_waking_them():
    mapping, _ = make_mapping()
    env = mapping.env
    block_key = (0, 0, 1)
    mapping._pin(block_key)
    barrier = env.process(mapping.wait_unpinned(block_key))
    env.run()
    mapping.clear()  # a cut: the device ends the waiting pass itself
    mapping._pin(block_key)
    mapping._unpin(block_key)  # the first unpin after recovery
    before = env.events_processed
    env.run()
    assert barrier.is_alive and env.events_processed == before


def test_doctored_page_count_trips_san_valid():
    """Bytes moved between two pages of one block: the block total still
    agrees, and only the per-page check sees the page GC would skip."""
    mapping, _ = make_mapping()
    mapping.install(value(7, 1), at(block=1))
    mapping._page_valid_bytes[page(1)] -= NBYTES
    mapping._page_valid_bytes[page(1, 1)] += NBYTES
    assert mapping.valid_bytes((0, 0, 1)) == NBYTES
    with pytest.raises(InvariantError) as info:
        sanitize.check_accounting(mapping)
    assert info.value.rule == "SAN-VALID"
    mapping._page_valid_bytes[page(1, 1)] = -NBYTES
    with pytest.raises(InvariantError) as info:
        sanitize.check_valid_bytes(mapping, at(block=1, page=1))
    assert info.value.rule == "SAN-VALID"


KEYS = st.integers(0, 5)
NAMESPACES = st.integers(1, 2)
OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["value", "marker"]), NAMESPACES, KEYS, st.integers(1, 25)),
        st.tuples(st.just("relocate"), st.integers(0, 99)),
        st.tuples(st.just("stale_relocate"), NAMESPACES, KEYS),
        st.tuples(st.just("snapshot"), NAMESPACES),
        st.tuples(st.just("release"), st.integers(0, 9)),
        st.tuples(st.just("drop_namespace"), NAMESPACES),
        st.tuples(st.just("erase"), st.integers(0, 5)),
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(OPS)
def test_accounting_matches_references_under_random_histories(ops):
    """Installs (in any version order), tombstones, GC relocations,
    snapshots and namespace drops against a dict model of which copy is
    live; the oracle for valid bytes is the sanitizer's own arithmetic
    (valid bytes per block == bytes of ``references()``, never negative)."""
    mapping, _ = make_mapping()
    add_namespace(mapping, 2)
    live = {}      # (namespace, key) -> location of the live value
    versions = {}  # (namespace, key) -> newest version installed
    frozen = {}    # snapshot id -> (namespace, {key: location})
    fresh = iter(range(10_000))
    snapshot_ids = iter(range(10_000))

    def next_location():
        n = next(fresh)
        return at(block=n % 6, page=n // 6)

    for op in ops:
        kind = op[0]
        if kind in ("value", "marker"):
            _kind, namespace_id, key, seq = op
            entry = (namespace_id, key)
            location = next_location()
            record = value(key, seq, namespace_id) if kind == "value" else marker(
                key, seq, namespace_id
            )
            mapping.install(record, location)
            if namespace_id in mapping.namespaces and seq >= versions.get(entry, 0):
                versions[entry] = seq
                live.pop(entry, None)
                if kind == "value":
                    live[entry] = location
        elif kind == "relocate":
            references = list(mapping.references())
            if not references:
                continue
            namespace_id, key, old = references[op[1] % len(references)]
            new = next_location()
            holders = [live.get((namespace_id, key))] + [
                keys.get(key) for ns, keys in frozen.values() if ns == namespace_id
            ]
            record = (value if old in holders else marker)(key, 0, namespace_id)
            assert mapping.relocate(record, old, new)
            if live.get((namespace_id, key)) == old:
                live[(namespace_id, key)] = new
            for ns, keys in frozen.values():
                if ns == namespace_id and keys.get(key) == old:
                    keys[key] = new
        elif kind == "stale_relocate":
            _kind, namespace_id, key = op
            nowhere = at(block=7)  # no install ever lands in block 7
            assert not mapping.relocate(value(key, 0, namespace_id), nowhere, next_location())
        elif kind == "snapshot":
            namespace_id = op[1]
            if namespace_id in mapping.namespaces:
                snapshot_id = next(snapshot_ids)
                index = clone_index(mapping.namespaces[namespace_id].index)
                mapping.add_snapshot(Snapshot(snapshot_id, namespace_id, index))
                frozen[snapshot_id] = (
                    namespace_id,
                    {key: loc for (ns, key), loc in live.items() if ns == namespace_id},
                )
        elif kind == "release":
            if frozen:
                snapshot_id = sorted(frozen)[op[1] % len(frozen)]
                mapping.drop_snapshot(snapshot_id)
                del frozen[snapshot_id]
        elif kind == "drop_namespace":
            namespace_id = op[1]
            held = any(ns == namespace_id for ns, _keys in frozen.values())
            if namespace_id in mapping.namespaces and not held:  # KamlSsd's rule
                mapping.drop_namespace(namespace_id)
                for table in (live, versions):
                    for entry in [e for e in table if e[0] == namespace_id]:
                        del table[entry]
                assert not staged_keys(mapping, namespace_id)
                assert all(ns != namespace_id for ns, _k, _l in mapping.references())
        elif kind == "erase":
            block_key = (0, 0, op[1])
            if mapping.valid_bytes(block_key) == 0:  # GC erases only emptied blocks
                mapping.block_erased(block_key)
        sanitize.check_accounting(mapping)
        for namespace_id, namespace in mapping.namespaces.items():
            for key in range(6):
                assert current(mapping, namespace, key) == live.get((namespace_id, key))
        for snapshot_id, (_ns, keys) in frozen.items():
            table = dict(mapping.snapshots[snapshot_id].index.items())
            assert table == keys
