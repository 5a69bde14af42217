"""Multi-tenant cluster workload: the tenant population.  The cluster
matrix drives the workload end to end and reads every acknowledged
write back (tests/harness/test_cluster_cli.py)."""

from repro.workloads.multitenant import DEFAULT_TENANTS


def test_default_tenants_cover_three_service_tiers():
    names = [spec.name for spec in DEFAULT_TENANTS]
    assert names == ["gold", "silver", "bronze"]
    budgets = [spec.latency_budget_us for spec in DEFAULT_TENANTS]
    assert budgets == sorted(budgets)  # gold is the tightest contract


def test_namespace_name_derives_from_the_tenant():
    assert DEFAULT_TENANTS[0].namespace() == "gold-data"
