"""Call budgets of one cross-shard 2PC transaction and of one Get through a
shard queue, tracers disarmed.

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
#: process of its own).  The coordinator runs one prepare and both commits
#: in its own frame, not in a process each: sim fell 255 -> 211 while
#: cluster rose 52 -> 62, because a ``yield from`` frame is resumed once
#: per resume of the device generator below it (kaml and ssd +1 each; 737
#: calls -> 705 in all).  Obs fell 66 -> 54 once the prepare and commit
#: counters were resolved on first use, not on every call.
#: One Get through a shard queue and a device flash read.  The request
#: wakes one idle worker (it used to wake all four: cluster 23, sim 59)
#: and runs in that worker's frame.
GET_BUDGET = {"cluster": 19, "kaml": 9, "flash": 11, "ssd": 5, "obs": 20, "sim": 30}
TWOPC_BUDGET = {"cluster": 62, "kaml": 187, "flash": 122, "ssd": 45, "obs": 54, "sim": 211}


def _cluster():
    env = Environment()
    config = ReproConfig.small()
    config = config.with_(kaml=KamlParams(num_logs=config.geometry.total_chips))
    cluster = KamlCluster.build(env, config, ClusterConfig(num_shards=2))
    cluster.register_tenant(TenantPolicy("t", latency_budget_us=100_000.0))
    for tracer in [cluster.tracer, *(d.tracer for d in cluster.shards.values())]:
        tracer.enabled = False
    proc = env.process(cluster.create_namespace("data", tenant="t", mode="hashed"))
    env.run_until(proc)
    return env, cluster, proc.value


def test_cross_shard_transaction_call_budget():
    env, cluster, namespace = _cluster()
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


def test_single_shard_request_call_budget():
    env, cluster, _namespace = _cluster()

    def load():
        yield from cluster.put("data", [(7, "v", 1000)])
        yield from cluster.drain()

    env.run_until(env.process(load()))
    census(env, cluster.get("data", 7))
    value, calls = census(env, cluster.get("data", 7))
    assert value == "v"
    assert into(calls, "trace") == 0  # disarmed: no tracing call at all
    spent = {package: into(calls, package) for package in GET_BUDGET}
    assert all(spent[p] <= GET_BUDGET[p] for p in GET_BUDGET), spent
