"""Exact simulation-event counts of four fixed workloads.

The counts are deterministic on every machine, so any change to them
means the simulation schedules more (or less) work per operation:

* ``kernel`` — a timer cascade plus resource ping-pong with no KV stack
  on top; isolates event-loop cost (heap ops, callbacks, resumptions);
* ``mixed`` — a 50/50 Get/Put mix through the full KAML store;
* ``ycsb-b`` — YCSB B (95 % reads) through the caching layer and lock
  table, the stack Figure 10 exercises;
* ``cluster`` — Gets, single-key Puts and cross-shard (2PC) Puts through
  a 2-shard ``KamlCluster``: shard queues, workers and the coordinator;
* ``gc`` — ``op_instants_mini``'s GC-pressured device schedule: multi-record
  Puts, Gets and Deletes straight on a small ``KamlSsd`` whose logs run GC,
  the log, relocation and NVRAM path ``put-gc`` runs.

Store, cluster and gc workloads count only their measured phase (setup
excluded).  A change to the modelled device re-pins these numbers
together with the digests, under DESIGN.md's re-pin protocol.  A kernel
or cluster-tier hand-off change may re-pin them alone only if it is exact
or event-only in DESIGN.md's sense ("Event-only changes"): every digest
holds, both sanitised matrices print the same bytes, and ``make
bench-diff`` lets only ``sim_events_per_op`` move.  Tooling changes leave
them alone.
"""

import random

from tests.determinism.test_digests import gc_pressured_device
from tests.integration.test_zero_event_exactness import small_device

from repro.cluster import ClusterConfig, KamlCluster, TenantPolicy
from repro.config import ReproConfig
from repro.harness.runner import build_kaml_store
from repro.sim import Environment
from repro.sim.resources import Resource
from repro.workloads import prepare_workload

EXPECTED = {
    "kernel": 76_865, "mixed": 5_511, "ycsb-b": 2_768, "cluster": 6_029, "gc": 6_782,
}


def kernel_events() -> int:
    """64 pingers x 400 hops through an 8-slot gate.  The timeouts keep
    the plain ``yield env.timeout()`` spelling on purpose: the count
    measures the event heap, not the zero-event fast path."""
    env = Environment()
    gate = Resource(env, capacity=8, name="perf.gate")

    def pinger(seed):
        rng = random.Random(seed)
        for _ in range(400):
            request = gate.request()
            yield request
            yield env.timeout(1.0 + rng.random())
            gate.release(request)
            yield env.timeout(0.5)

    env.run_until(env.all_of([env.process(pinger(1000 + i)) for i in range(64)]))
    return env.events_processed


def store_events(workload: str, **params) -> int:
    env, ssd, store = build_kaml_store(cache_bytes=1 << 20)
    measured_phase = prepare_workload(workload, env, ssd, store, threads=4, **params)
    before = env.events_processed
    measured_phase()
    return env.events_processed - before


def cluster_events(clients: int = 4, ops: int = 250, keys: int = 256) -> int:
    """A seeded 60/25/15 mix of Gets, single-key Puts and 3-key Puts
    (which straddle both shards, so they run 2PC) from closed-loop
    clients; the namespace load is setup and not counted."""
    env = Environment()
    cluster = KamlCluster.build(env, ReproConfig.small(), ClusterConfig(num_shards=2))
    cluster.register_tenant(TenantPolicy("t", latency_budget_us=100_000.0))

    def load():
        yield from cluster.create_namespace("data", tenant="t", mode="hashed")
        for base in range(0, keys, 8):
            yield from cluster.put("data", [(k, k, 256) for k in range(base, base + 8)])

    env.run_until(env.process(load()))

    def client(seed):
        rng = random.Random(seed)
        for _ in range(ops):
            roll, key = rng.random(), rng.randrange(keys - 2)
            if roll < 0.6:
                yield from cluster.get("data", key)
            elif roll < 0.85:
                yield from cluster.put("data", [(key, seed, 256)])
            else:
                yield from cluster.put("data", [(k, seed, 256) for k in range(key, key + 3)])

    before = env.events_processed
    env.run_until(env.all_of([env.process(client(31 + i)) for i in range(clients)]))
    return env.events_processed - before


def gc_events() -> int:
    env, ssd, nsid = small_device()
    before = env.events_processed
    gc_pressured_device(env, ssd, nsid)
    return env.events_processed - before


def test_sim_event_counts_are_exact():
    counts = {
        "kernel": kernel_events(),
        "mixed": store_events("mixed", seed=42, ops=2000, key_space=512),
        "ycsb-b": store_events("ycsb-b", seed=7, ops=1000, records=1000),
        "cluster": cluster_events(),
        "gc": gc_events(),
    }
    assert counts == EXPECTED
