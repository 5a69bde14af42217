"""KamlCluster serving-tier integration: routing, scans, rebalance."""

import pytest

from repro.cluster import ClusterConfig, KamlCluster, TenantPolicy, key_shard_slot
from repro.cluster.errors import ClusterError
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
    return env, cluster


def test_config_and_device_count_must_agree():
    env = Environment()
    devices = KamlCluster.build(
        env, default_device_config(), ClusterConfig(num_shards=2)
    ).shards
    with pytest.raises(ClusterError):
        KamlCluster(env, list(devices.values()), ClusterConfig(num_shards=3))
    with pytest.raises(ClusterError):
        KamlCluster(env, [], None)


def test_hashed_namespace_serves_all_shards():
    env, cluster = make_cluster()

    def flow():
        yield from cluster.create_namespace("data", tenant="t", mode="hashed")
        for key in range(24):
            yield from cluster.put("data", [(key, ("v", key), 250)])
        yield from cluster.drain()
        observed = []
        for key in range(24):
            observed.append((yield from cluster.get("data", key)))
        return observed

    assert run(env, flow()) == [("v", key) for key in range(24)]
    # The dense keyspace really landed on both devices.
    for shard_id, device in cluster.shards.items():
        assert device.metrics.total("kaml.ssd.puts") > 0, shard_id


def test_delete_routes_like_get():
    env, cluster = make_cluster()

    def flow():
        yield from cluster.create_namespace("data", tenant="t", mode="hashed")
        yield from cluster.put("data", [(7, "alive", 200)])
        yield from cluster.delete("data", 7)
        yield from cluster.drain()
        return (yield from cluster.get("data", 7))

    assert run(env, flow()) is None


def test_scan_merges_shards_in_key_order():
    from repro.kaml.namespace import NamespaceAttributes

    env, cluster = make_cluster()

    def flow():
        yield from cluster.create_namespace(
            "data", tenant="t", mode="hashed",
            attributes=NamespaceAttributes(index_structure="sorted"),
        )
        for key in (5, 1, 9, 3, 7):
            yield from cluster.put("data", [(key, ("v", key), 200)])
        yield from cluster.drain()
        return (yield from cluster.scan("data", 1, 9))

    result = run(env, flow())
    assert [key for key, _value in result] == [1, 3, 5, 7, 9]
    assert all(value == ("v", key) for key, value in result)


def test_unknown_namespace_is_an_error():
    env, cluster = make_cluster()

    def flow():
        yield from cluster.get("nope", 1)

    with pytest.raises(ClusterError):
        run(env, flow())


def test_rebalance_moves_a_homed_namespace():
    env, cluster = make_cluster()

    def flow():
        yield from cluster.create_namespace(
            "inbox", tenant="t", mode="homed", home_shard=0
        )
        for key in range(10):
            yield from cluster.put("inbox", [(key, ("m", key), 220)])
        yield from cluster.delete("inbox", 3)
        yield from cluster.drain()
        moved = yield from cluster.rebalance("inbox", 1)
        observed = []
        for key in range(10):
            observed.append((yield from cluster.get("inbox", key)))
        return moved, observed

    moved, observed = run(env, flow())
    assert moved == 9  # ten written, one deleted before the move
    expected = [("m", key) if key != 3 else None for key in range(10)]
    assert observed == expected
    ns = cluster.placement.get("inbox")
    assert ns.placement == [1]
    assert cluster.metrics.total("cluster.rebalances") == 1
    assert cluster.metrics.histogram("cluster.rebalance.us").count == 1


def test_rebalance_to_the_same_shard_is_a_noop():
    env, cluster = make_cluster()

    def flow():
        yield from cluster.create_namespace(
            "inbox", tenant="t", mode="homed", home_shard=0
        )
        return (yield from cluster.rebalance("inbox", 0))

    assert run(env, flow()) == 0
    assert cluster.metrics.total("cluster.rebalances") == 0


def test_hashed_namespaces_cannot_migrate():
    env, cluster = make_cluster()

    def flow():
        yield from cluster.create_namespace("data", tenant="t", mode="hashed")
        yield from cluster.rebalance("data", 1)

    with pytest.raises(ClusterError):
        run(env, flow())


def test_hashed_namespace_rejects_a_home_shard():
    env, cluster = make_cluster()

    def flow():
        yield from cluster.create_namespace(
            "data", tenant="t", mode="hashed", home_shard=1
        )

    with pytest.raises(ClusterError):
        run(env, flow())


def test_requests_park_while_a_migration_is_in_flight():
    env, cluster = make_cluster()
    order = []

    def setup():
        yield from cluster.create_namespace(
            "inbox", tenant="t", mode="homed", home_shard=0
        )
        for key in range(6):
            yield from cluster.put("inbox", [(key, ("m", key), 220)])
        yield from cluster.drain()

    run(env, setup())

    def migrate():
        order.append(("migrate-start", env.now))
        yield from cluster.rebalance("inbox", 1)
        order.append(("migrate-done", env.now))

    def reader():
        # Issued while the migration is quiescing: must park, then land
        # on the *new* home shard.
        yield env.timeout(1.0)
        value = yield from cluster.get("inbox", 2)
        order.append(("read-done", env.now))
        return value

    migration = env.process(migrate())
    read = env.process(reader())

    def drive():
        yield env.all_of([migration, read])

    run(env, drive())
    assert read.value == ("m", 2)
    names = [name for name, _t in order]
    assert names.index("migrate-done") < names.index("read-done")
    assert key_shard_slot(2, 2) in (0, 1)  # routing stays in range
