"""Call budget of one cross-shard 2PC transaction, tracers disarmed.

The cluster tier keeps the disarmed contract of the layers below it: no
call into ``obs/trace.py`` from the coordinator, the shard queues or the
devices (:mod:`tests.call_census`).  A budget may be lowered when the path
gets cheaper; raising it needs a reason as good as the one that set it.
"""

from tests.call_census import census, into

from repro.cluster import ClusterConfig, KamlCluster, TenantPolicy
from repro.config import KamlParams, ReproConfig
from repro.sim import Environment

#: Prepare on both shards, the commit decision, both commits, and both
#: participants' phases 2-3 through their installs (before ``None`` was
#: the one spelling of "untraced": obs 105, 27 of them tracing calls, and
#: sim 335; kaml 195 and sim 276 while each record was appended by a
#: process of its own).
TWOPC_BUDGET = {"cluster": 52, "kaml": 186, "flash": 122, "ssd": 44, "obs": 78, "sim": 255}


def test_cross_shard_transaction_call_budget():
    env = Environment()
    config = ReproConfig.small()
    config = config.with_(kaml=KamlParams(num_logs=config.geometry.total_chips))
    cluster = KamlCluster.build(env, config, ClusterConfig(num_shards=2))
    cluster.register_tenant(TenantPolicy("t", latency_budget_us=100_000.0))
    for tracer in [cluster.tracer, *(d.tracer for d in cluster.shards.values())]:
        tracer.enabled = False
    proc = env.process(cluster.create_namespace("data", tenant="t", mode="hashed"))
    env.run_until(proc)
    namespace = proc.value
    first_key = {}
    for key in range(64):
        first_key.setdefault(namespace.route(key)[0], key)
    assert len(first_key) == 2  # one key on each shard

    def transaction(tag):
        background = yield from cluster.put(
            "data", [(key, tag, 1000) for key in first_key.values()]
        )
        yield env.all_of(background)

    census(env, transaction("warm"))
    _value, calls = census(env, transaction("measured"))
    assert cluster.metrics.total("cluster.2pc.txns") == 2
    assert into(calls, "trace") == 0  # disarmed: no tracing call at all
    spent = {package: into(calls, package) for package in TWOPC_BUDGET}
    assert all(spent[p] <= TWOPC_BUDGET[p] for p in TWOPC_BUDGET), spent
