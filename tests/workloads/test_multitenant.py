"""Multi-tenant cluster workload: model exactness and 2PC coverage."""

from repro.cluster import ClusterConfig, KamlCluster
from repro.fault.harness import default_device_config
from repro.sim import Environment
from repro.workloads.multitenant import (
    DEFAULT_TENANTS,
    TenantSpec,
    run_multitenant,
)

#: Slimmed-down tenant population so the unit test stays fast while
#: still covering every op class (single put, group put, delete, get).
SMALL_TENANTS = (
    TenantSpec("gold", latency_budget_us=20_000.0, workers=2,
               ops_per_worker=20, key_space=32, put_fraction=0.4,
               group_fraction=0.2, think_us=(30.0, 120.0)),
    TenantSpec("bronze", latency_budget_us=120_000.0, workers=1,
               ops_per_worker=15, key_space=24, put_fraction=0.3,
               delete_fraction=0.15, think_us=(60.0, 240.0)),
)


def make_cluster(num_shards=2):
    env = Environment()
    cluster = KamlCluster.build(
        env, default_device_config(), ClusterConfig(num_shards=num_shards)
    )
    return env, cluster


def test_default_tenants_cover_three_service_tiers():
    names = [spec.name for spec in DEFAULT_TENANTS]
    assert names == ["gold", "silver", "bronze"]
    budgets = [spec.latency_budget_us for spec in DEFAULT_TENANTS]
    assert budgets == sorted(budgets)  # gold is the tightest contract


def test_namespace_name_derives_from_the_tenant():
    assert SMALL_TENANTS[0].namespace() == "gold-data"


def test_run_verifies_every_acknowledged_write():
    env, cluster = make_cluster()
    result = run_multitenant(env, cluster, tenants=SMALL_TENANTS, seed=3)
    assert result["ok"], result["failures"]
    assert result["total_ops"] > 0
    assert result["elapsed_us"] > 0
    assert result["ops_per_sec"] > 0
    by_name = {row["name"]: row for row in result["tenants"]}
    assert set(by_name) == {"gold", "bronze"}
    for row in by_name.values():
        assert row["ops"] == (
            row["puts"] + row["group_puts"] + row["gets"] + row["deletes"]
        )


def test_group_puts_exercise_the_cross_shard_path():
    env, cluster = make_cluster()
    result = run_multitenant(env, cluster, tenants=SMALL_TENANTS, seed=3)
    assert result["ok"], result["failures"]
    total_groups = sum(row["group_puts"] for row in result["tenants"])
    assert total_groups > 0
    # Group puts over consecutive keys in a hashed namespace straddle
    # shards, so the host-side coordinator must have run.
    assert cluster.metrics.total("cluster.2pc.txns") > 0
    assert cluster.journal.open_txns() == []


def test_seeds_change_the_schedule_but_not_correctness():
    outcomes = []
    for seed in (1, 2):
        env, cluster = make_cluster()
        result = run_multitenant(env, cluster, tenants=SMALL_TENANTS, seed=seed)
        assert result["ok"], result["failures"]
        outcomes.append(result["elapsed_us"])
    assert outcomes[0] != outcomes[1]
