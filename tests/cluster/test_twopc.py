"""Host-side 2PC: the live protocol and journal-driven recovery."""

import pytest

from repro.cluster import ClusterConfig, KamlCluster, TenantPolicy, key_shard_slot
from repro.cluster.errors import TwoPhaseCommitError
from repro.cluster.twopc import IntentJournal, recover_transactions
from repro.config import ReproConfig
from repro.errors import PowerLossError
from repro.fault import FaultPlan, PowerLossInjector
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
    assert cluster.journal.entry(1) is None  # retired: no entry left behind
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


def test_refused_prepare_aborts_after_every_sibling_settles():
    # Shard 1 refuses its record (larger than a flash page) on its first
    # step while shard 0's prepare is still in flight: the abort must
    # wait for it, or shard 0's NVRAM pin outlives the transaction.
    env = Environment()
    config = ReproConfig.small()
    cluster = KamlCluster.build(env, config, ClusterConfig(num_shards=2))
    cluster.register_tenant(TenantPolicy("t", latency_budget_us=100_000.0))
    namespace = run(env, cluster.create_namespace("data", tenant="t", mode="hashed"))
    first_key = {}
    for key in range(64):
        first_key.setdefault(namespace.route(key)[0], key)
    items = [(first_key[0], "small", 300), (first_key[1], "huge", 2 * config.geometry.page_size)]

    def flow():
        with pytest.raises(TwoPhaseCommitError):
            yield from cluster.put("data", items)

    run(env, flow())
    env.run()
    assert cluster.journal.open_txns() == []
    assert cluster.journal.entry(1) is None
    assert cluster.metrics.total("cluster.2pc.aborts") == 1
    for shard in cluster.shards.values():
        assert shard.prepared_batches() == {}
        assert shard.nvram.used_bytes == 0


def test_power_cut_at_a_participants_pin_aborts_the_transaction():
    """A prepare is a Put's pin, so it announces ``put.after_nvram_pin``.
    Cut one shard's power there: device recovery keeps the prepare pinned,
    journal recovery presumes abort, and every key keeps its old value with
    no NVRAM pin left on any shard."""
    env, cluster = make_cluster()
    keys = straddling_keys(2)
    crashed = cluster.shards[key_shard_slot(keys[0], 2)]

    def load():
        yield from cluster.put("data", [(key, ("old", key), 300) for key in keys])
        yield from cluster.drain()

    run(env, load())
    injector = PowerLossInjector(crashed, FaultPlan(point="put.after_nvram_pin")).attach()

    def flow():
        with pytest.raises(PowerLossError):
            yield from cluster.put("data", [(key, ("new", key), 300) for key in keys])
        crashed.fault = None
        yield from crashed.recover()
        assert crashed.prepared_batches() != {}  # kept in doubt, not replayed
        stats, background = yield from recover_transactions(cluster.journal, cluster.shards)
        yield from cluster.drain()
        observed = {}
        for key in keys:
            observed[key] = yield from cluster.get("data", key)
        return stats, background, observed

    stats, background, observed = run(env, flow())
    assert injector.fired is not None and injector.fired["point"] == "put.after_nvram_pin"
    assert stats == {"committed": 0, "aborted": 1}
    assert background == []
    assert observed == {key: ("old", key) for key in keys}
    assert cluster.journal.open_txns() == []
    for shard in cluster.shards.values():
        assert shard.prepared_batches() == {}
        assert shard.nvram.used_bytes == 0


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
        return (yield from recover_transactions(journal, shards))

    stats, background = run(env, flow())
    assert stats == {"committed": 0, "aborted": 1}
    assert background == []
    assert shards[0].aborted == [11]
    assert shards[1].aborted == [12]
    assert shards[0].committed == []
    assert journal.open_txns() == []
    assert journal.entry(1) is None


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
        return (yield from recover_transactions(journal, shards))

    stats, _background = run(env, flow())
    assert stats == {"committed": 1, "aborted": 0}
    assert shards[1].committed == [55]
    assert shards[1].aborted == []
    assert journal.open_txns() == []
    assert journal.entry(5) is None


def test_recovery_aborts_orphaned_prepares():
    env = Environment()
    journal = IntentJournal(env)
    shards = {0: FakeParticipant(env, {9: 99})}

    def flow():
        # No journal entry at all for txn 9: belt-and-braces abort.
        return (yield from recover_transactions(journal, shards))

    stats, _background = run(env, flow())
    assert stats == {"committed": 0, "aborted": 1}
    assert shards[0].aborted == [99]


def test_a_participants_device_spans_join_the_coordinators_trace():
    """A traced cross-shard Put holds, for each participant, the spans a
    local Put records — transfer and NVRAM reserve under the prepare,
    index probe and phase 2 under the commit — and kamlprof bills them to
    the components it bills a local Put's to.  A participant commit is no
    host Put: no ``kaml.put`` root and no ack."""
    from repro.kaml import PutItem
    from repro.obs.profile import analyze

    env, cluster = make_cluster()
    keys = straddling_keys(2)

    def flow():
        yield from cluster.put("data", [(key, ("v", key), 300) for key in keys])
        yield from cluster.drain()

    run(env, flow())
    events = cluster.tracer.recorder.events()
    [root] = [event for event in events if event.name == "cluster.2pc"]
    trace = [event for event in events if event.trace_id == root.trace_id]
    by_id = {event.span_id: event for event in trace}
    for name, parent in [
        ("put.transfer", "cluster.2pc.prepare"),
        ("put.nvram_reserve", "cluster.2pc.prepare"),
        ("put.index_probe", "cluster.2pc.commit"),
        ("put.phase2", "cluster.2pc.commit"),
    ]:
        spans = [event for event in trace if event.name == name]
        assert [by_id[span.parent_id].name for span in spans] == [parent, parent], name
    assert not {"kaml.put", "put.phase1", "put.ack"} & {event.name for event in trace}

    device = cluster.shards[0]

    def local_put():
        namespace = yield from device.create_namespace()
        done = yield from device.put([PutItem(namespace, 1, "local", 300)])
        yield done

    run(env, local_put())
    [local] = analyze(device.tracer.recorder.events())["requests"]["kaml.put"].values()
    [twopc] = analyze(events)["requests"]["cluster.2pc"].values()
    for component in ("host_transfer", "index_cpu"):
        assert twopc["components"][component]["us"] > 0.0, component
        assert local["components"][component]["us"] > 0.0, component
