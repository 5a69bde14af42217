"""Host-side 2PC: the live protocol and journal-driven recovery."""

import pytest

from repro.cluster import ClusterConfig, KamlCluster, TenantPolicy, key_shard_slot
from repro.cluster.errors import TwoPhaseCommitError
from repro.cluster.twopc import IntentJournal, recover_transactions
from repro.fault.harness import default_device_config
from repro.sim import Environment


def run(env, gen):
    proc = env.process(gen)
    env.run_until(proc)
    return proc.value


def make_cluster(num_shards=2):
    env = Environment()
    cluster = KamlCluster.build(
        env, default_device_config(), ClusterConfig(num_shards=num_shards)
    )
    cluster.register_tenant(TenantPolicy("t", latency_budget_us=100_000.0))

    def setup():
        yield from cluster.create_namespace("data", tenant="t", mode="hashed")

    run(env, setup())
    return env, cluster


def straddling_keys(num_shards, count=3):
    """Consecutive keys guaranteed to cover >= 2 shards."""
    keys = []
    slots = set()
    key = 0
    while len(keys) < count or len(slots) < 2:
        slot = key_shard_slot(key, num_shards)
        if len(keys) < count or slot not in slots:
            keys.append(key)
            slots.add(slot)
        key += 1
    return keys


def test_cross_shard_put_commits_atomically_and_retires_the_journal():
    env, cluster = make_cluster()
    keys = straddling_keys(2)
    shards_hit = {key_shard_slot(key, 2) for key in keys}
    assert len(shards_hit) >= 2  # the batch genuinely straddles

    def flow():
        yield from cluster.put(
            "data", [(key, ("v", key), 300) for key in keys]
        )
        yield from cluster.drain()
        observed = {}
        for key in keys:
            observed[key] = yield from cluster.get("data", key)
        return observed

    observed = run(env, flow())
    assert observed == {key: ("v", key) for key in keys}
    assert cluster.metrics.total("cluster.2pc.txns") == 1
    assert cluster.metrics.total("cluster.2pc.aborts") == 0
    assert cluster.journal.open_txns() == []
    for shard in cluster.shards.values():
        assert shard.prepared_batches() == {}


def test_single_shard_batch_skips_the_coordinator():
    env, cluster = make_cluster()
    # Two keys on the same shard: the native device put handles them.
    key = 0
    shard = key_shard_slot(key, 2)
    partner = next(
        k for k in range(1, 100) if key_shard_slot(k, 2) == shard
    )

    def flow():
        yield from cluster.put(
            "data", [(key, "a", 200), (partner, "b", 200)]
        )
        yield from cluster.drain()
        return (
            (yield from cluster.get("data", key)),
            (yield from cluster.get("data", partner)),
        )

    assert run(env, flow()) == ("a", "b")
    assert cluster.metrics.total("cluster.2pc.txns") == 0


def test_coordinator_rejects_degenerate_participant_sets():
    env, cluster = make_cluster()
    device = cluster.shards[0]

    def lone():
        yield from cluster.coordinator.run([(0, device, [])])

    with pytest.raises(TwoPhaseCommitError):
        run(env, lone())

    def duplicated():
        yield from cluster.coordinator.run(
            [(0, device, []), (0, device, [])]
        )

    with pytest.raises(TwoPhaseCommitError):
        run(env, duplicated())


class FakeParticipant:
    """Journal-recovery stand-in: tracks prepares and the decision calls."""

    def __init__(self, env, prepared):
        self.env = env
        self.epoch = 0
        self._prepared = dict(prepared)  # txn_id -> handle
        self.committed = []
        self.aborted = []

    def prepared_batches(self):
        return dict(self._prepared)

    def commit_prepared(self, handle):
        yield self.env.timeout(1.0)
        self.committed.append(handle)
        return None

    def abort_prepared(self, handle):
        yield self.env.timeout(1.0)
        self.aborted.append(handle)
        return None


def test_recovery_presumes_abort_for_undecided_transactions():
    env = Environment()
    journal = IntentJournal(env)
    shards = {
        0: FakeParticipant(env, {1: 11}),
        1: FakeParticipant(env, {1: 12}),
    }

    def flow():
        yield from journal.log_begin(1, [0, 1])
        # No log_commit: the coordinator died before the decision.
        return (yield from recover_transactions(env, journal, shards))

    stats, background = run(env, flow())
    assert stats == {"committed": 0, "aborted": 1}
    assert background == []
    assert shards[0].aborted == [11]
    assert shards[1].aborted == [12]
    assert shards[0].committed == []
    assert journal.open_txns() == []


def test_recovery_finishes_decided_transactions_on_the_straggler():
    env = Environment()
    journal = IntentJournal(env)
    # Shard 0 committed before the cut (its prepare map is empty);
    # shard 1 still holds the in-doubt prepare.
    shards = {
        0: FakeParticipant(env, {}),
        1: FakeParticipant(env, {5: 55}),
    }

    def flow():
        yield from journal.log_begin(5, [0, 1])
        yield from journal.log_commit(5)
        return (yield from recover_transactions(env, journal, shards))

    stats, _background = run(env, flow())
    assert stats == {"committed": 1, "aborted": 0}
    assert shards[1].committed == [55]
    assert shards[1].aborted == []
    assert journal.open_txns() == []


def test_recovery_aborts_orphaned_prepares():
    env = Environment()
    journal = IntentJournal(env)
    shards = {0: FakeParticipant(env, {9: 99})}

    def flow():
        # No journal entry at all for txn 9: belt-and-braces abort.
        return (yield from recover_transactions(env, journal, shards))

    stats, _background = run(env, flow())
    assert stats == {"committed": 0, "aborted": 1}
    assert shards[0].aborted == [99]
