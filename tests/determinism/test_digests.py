"""Fixed-seed result digests across the scheduler rewrite.

Each scenario runs a miniature but fully representative workload with a
pinned seed and hashes the *results* (figure rows, crash verdicts,
simulated clock) into a SHA-256 digest.  The expected values were
captured on the pre-rewrite tuple-heap kernel; the rewritten scheduler
must reproduce them bit-for-bit — same seeds, same results.  The seventh,
``matrices``, hashes the cell facts of the two full sweeps that tier-1
runs once per session (the ``crash_matrix`` and ``serving_matrix``
fixtures in ``tests/conftest.py``).

If a digest changes, the simulation's behavior changed.  That is only
acceptable for a deliberate semantic change (a new timing model, a
protocol fix); re-pin with::

    PYTHONPATH=src python -m tests.determinism.test_digests

and say why in the commit message.  A kernel/scheduler/observability
"optimization" that shifts a digest is a bug in the optimization.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List

from repro.fault.harness import pick_hit, run_scenario
from repro.fault.plan import FaultPlan
from repro.harness import experiments


def _canonical(value: Any) -> Any:
    """JSON-stable form: floats via repr (full precision), tuples->lists."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    return value


def digest(payload: Any) -> str:
    text = json.dumps(_canonical(payload), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Scenarios.  Keep them small: the whole module must stay in tier-1
# budget, and every scenario must exercise the full stack (kernel,
# resources, logs, GC, NVRAM, cache) rather than a toy subset.
# ----------------------------------------------------------------------


def fig5_mini() -> Dict[str, Any]:
    result = experiments.fig5_bandwidth(
        value_sizes=(512, 2048),
        load_factors=(0.1, 0.7),
        threads=4,
        ops_per_thread=8,
    )
    return {"rows": result["rows"], "metrics": result["metrics"]}


def fig10_mini() -> Dict[str, Any]:
    result = experiments.fig10_ycsb(
        workloads=("a", "c"),
        records=300,
        threads=4,
        ops_per_thread=10,
        seed=11,
    )
    return {"rows": result["rows"], "metrics": result["metrics"]}


def crash_scenario() -> Dict[str, Any]:
    seed = 3
    counting = run_scenario(FaultPlan(), seed=seed, ops_per_writer=40)
    point = "put.before_install"
    available = counting["hits"].get(point, 0)
    armed = run_scenario(
        FaultPlan(point=point, hit=pick_hit(seed, point, max(1, available))),
        seed=seed,
        ops_per_writer=40,
    )
    keep = (
        "ok", "failures", "seed", "point", "hit", "crashed", "fired",
        "hits", "ops", "acked_ops", "in_flight_ops", "recovered_batches",
        "scanned_pages", "scanned_records", "sim_time_us",
    )
    return {
        "counting": {k: counting[k] for k in keep},
        "armed": {k: armed[k] for k in keep},
    }


def prof_breakdown_mini() -> Dict[str, Any]:
    """kamlprof attribution over a small fixed-seed mixed run.

    Hashes the full per-namespace component breakdown (fractions at
    float precision), the background buckets, and the recorder counts —
    if span instrumentation or the attribution algorithm shifts
    behavior, this digest moves.
    """
    import io

    from repro.harness.__main__ import command_parser
    from repro.harness.prof_cli import run as run_prof

    args = command_parser("prof").parse_args([
        "--workload", "mixed", "--ops", "80", "--threads", "2",
        "--key-space", "64", "--seed", "13",
    ])
    report = run_prof(args, out=io.StringIO())
    return {
        "requests": report["requests"],
        "background": report["background"],
        "elapsed_us": report["elapsed_us"],
        "recorder": report["recorder"],
    }


def ycsb_replay_mini() -> Dict[str, Any]:
    """kamltrace round trip: capture YCSB-B, replay it, re-capture.

    The captured journal (both layers), the re-captured device journal,
    and the replayed run's clock are all hashed; ``match`` asserts the
    replay re-issued the exact captured device-op sequence — the
    capture -> replay -> capture invariant.  A change to the journal
    schema, the batch regrouping, or replay issue order moves this
    digest; with capture *disabled* the four digests above prove the
    hooks themselves are free.
    """
    from repro.harness.runner import build_kaml_ssd, build_kaml_store
    from repro.workloads import KamlAdapter, Ycsb
    from repro.workloads.replay import (
        journal_to_issues,
        prepare_namespaces,
        replay_journal,
    )

    env, ssd, store = build_kaml_store(cache_bytes=1 << 20)
    journal = ssd.enable_oplog()
    ycsb = Ycsb(env, KamlAdapter(store), records=60, workload="b", seed=17)
    ycsb.setup()
    ycsb.run(threads=2, ops_per_thread=10)
    for _ in range(2):
        settle = env.process(ssd.drain())
        env.run_until(settle)
    rows = list(journal.rows)
    captured = [
        (r["op"], r["layer"], r["ns"], r["key_hash"], r["size"], r["outcome"])
        for r in rows
    ]

    env2, ssd2 = build_kaml_ssd()
    mapping = prepare_namespaces(env2, ssd2, rows)
    recapture = ssd2.enable_oplog()
    result = replay_journal(
        env2, ssd2, journal_to_issues(rows),
        namespace_map=mapping, mode="closed", threads=1,
    )
    for _ in range(2):
        settle = env2.process(ssd2.drain())
        env2.run_until(settle)
    replayed = [
        (r["op"], r["ns"], r["key_hash"], r["size"], r["outcome"])
        for r in recapture.rows
    ]
    device_view = [
        (op, ns, key, size, outcome)
        for op, layer, ns, key, size, outcome in captured
        if layer == "ssd"
    ]
    return {
        "captured": captured,
        "replayed": replayed,
        "match": replayed == device_view,
        "replay_ops": result.ops,
        "replay_elapsed_us": result.elapsed_us,
        "sim_now_us": env2.now,
    }


def gc_pressured_device(env, ssd, nsid) -> list:
    """Four clients' seeded Put/Get/Delete mix on
    ``test_zero_event_exactness.small_device()``, then a drain; the Puts
    keep the device's GC erasing blocks.  Returns every op's ``(client,
    kind, issue instant, ack instant)``."""
    import random

    from tests.integration.test_zero_event_exactness import timed

    from repro.kaml import PutItem

    rng = random.Random(31)
    ops = []

    def client(cid):
        for _ in range(400):
            roll = rng.random()
            if roll < 0.1:
                yield from timed(env, ops, cid, "delete", ssd.delete(nsid, rng.randrange(24)))
            elif roll < 0.35:
                yield from timed(env, ops, cid, "get", ssd.get(nsid, rng.randrange(24)))
            else:
                items = [
                    PutItem(nsid, key, ("c", cid, key), rng.choice([200, 900, 2048]))
                    for key in rng.sample(range(24), rng.randint(1, 4))
                ]
                yield from timed(env, ops, cid, f"put{len(items)}", ssd.put(items))
            think_us = rng.choice([0.0, 60.0, 300.0])
            env.try_advance(think_us) or (yield env.timeout(think_us))

    env.run_until(env.all_of([env.process(client(c)) for c in range(4)]))
    env.run_until(env.process(ssd.drain()))
    assert ssd.metrics.total("kaml.log.gc.erased_blocks") > 0
    return ops


def op_instants_mini() -> Dict[str, Any]:
    """Every op's simulated instants on a GC-pressured device and a 2-shard
    cluster.

    Hashes each op's client, kind, issue instant and ack instant, plus the
    instant each Put's phases 2-3 (``repro.kaml.put._complete_put``) finish.  A
    Put acks at phase 1, so only the phase-2 instants see how background
    work at one instant is ordered.  A change that only moves work within
    one simulated instant (DESIGN.md, "Event-only changes") must leave this
    digest where it is.
    """
    import random

    from tests.integration.test_zero_event_exactness import small_device, timed

    from repro.cluster import ClusterConfig, KamlCluster, TenantPolicy
    from repro.fault.harness import default_device_config
    from repro.kaml import put as put_phases
    from repro.sim import Environment

    finished = []
    complete_put = put_phases._complete_put

    def recording(ssd, records, *args, **kwargs):
        yield from complete_put(ssd, records, *args, **kwargs)
        finished.append((
            [(r.namespace_id, r.key, r.seq) for r in records], ssd.env.now,
        ))

    def device() -> Dict[str, Any]:
        env, ssd, nsid = small_device()
        ops = gc_pressured_device(env, ssd, nsid)
        return {"ops": ops, "now": env.now}

    def cluster() -> Dict[str, Any]:
        env = Environment()
        tier = KamlCluster.build(env, default_device_config(), ClusterConfig(num_shards=2))
        tier.register_tenant(TenantPolicy("t", latency_budget_us=100_000.0))
        env.run_until(env.process(tier.create_namespace("data", tenant="t", mode="hashed")))
        rng = random.Random(37)
        ops = []

        def client(cid):
            for i in range(30):
                if i % 3 == 2:
                    yield from timed(env, ops, cid, "get", tier.get("data", rng.randrange(64)))
                    continue
                keys = rng.sample(range(64), 3 if i % 3 == 0 else 1)
                items = [(key, ("c", cid, i), 300) for key in keys]
                yield from timed(env, ops, cid, f"put{len(items)}", tier.put("data", items))

        env.run_until(env.all_of([env.process(client(c)) for c in range(4)]))
        env.run_until(env.process(tier.drain()))
        assert tier.metrics.total("cluster.2pc.txns") > 0
        return {"ops": ops, "now": env.now}

    put_phases._complete_put = recording
    try:
        payload = {"device": device()}
        payload["device_phase2"] = sorted(finished)
        finished.clear()
        payload["cluster"] = cluster()
        payload["cluster_phase2"] = sorted(finished)
    finally:
        put_phases._complete_put = complete_put
    assert payload["device_phase2"] and payload["cluster_phase2"]
    return payload


def matrices(crash: Dict[str, Any], serving: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The cell facts of the crash and serving-tier matrices, without the
    live metrics registry a crash cell carries.

    Crash cells: seed, point, hit, verdict, op counts and the simulated
    clock; serving cells: ops/s, rebalances, sheds and the per-tenant
    rows.  A change that moves one crash cell's cut, one recovery's
    outcome or one serving cell's throughput moves this digest.
    """
    crash_keys = (
        "seed", "point", "hit", "ok", "failures", "ops", "acked_ops",
        "in_flight_ops", "sim_time_us",
    )
    serving_keys = ("shards", "seed", "ops_per_sec", "rebalances", "total_sheds", "tenants")
    return {
        "crash": [{k: cell.get(k) for k in crash_keys} for cell in crash["cells"]],
        "serving": [{k: cell[k] for k in serving_keys} for cell in serving],
    }


def matrices_from_scratch() -> Dict[str, Any]:
    """:func:`matrices` over fresh sweeps (what the session fixtures run)."""
    from tests.cluster.test_serving_matrix import run_serving_matrix
    from tests.fault.test_crash_matrix import run_crash_matrix

    return matrices(run_crash_matrix(), run_serving_matrix())


SCENARIOS = {
    "fig5_mini": fig5_mini,
    "fig10_mini": fig10_mini,
    "crash_scenario": crash_scenario,
    "prof_breakdown_mini": prof_breakdown_mini,
    "ycsb_replay_mini": ycsb_replay_mini,
    "op_instants_mini": op_instants_mini,
    "matrices": matrices_from_scratch,
}

#: Captured on the pre-rewrite kernel (commit ad2ae2b lineage); see
#: module docstring before touching these.  All but ``fig5_mini`` (which
#: did not move) were re-pinned once, under DESIGN.md's model re-pin
#: protocol, for rate-adaptive log striping + the quiescence flush timer;
#: ``crash_scenario`` alone moved again, under the same protocol, when dies
#: began suspending pulses for host reads (its audit Gets and GC overlap).
#: ``op_instants_mini`` was added later, to hold event-only changes to
#: per-op instants.  ``crash_scenario`` and ``op_instants_mini`` moved
#: under the same protocol when GC stopped reading victim pages that hold
#: no live record (the only two of the six whose windows run GC).
#: ``fig5_mini``, ``fig10_mini`` and ``op_instants_mini`` moved under the
#: same protocol when a host record began joining the first page in its
#: stripe that fits instead of padding one early (the other three did not
#: move).  ``crash_scenario`` and ``op_instants_mini`` moved under the same
#: protocol when a Delete became a one-tombstone Put (the only two of the
#: six whose writers delete).  ``fig5_mini`` and ``crash_scenario`` moved
#: under the same protocol when a Put's phases 2-3 began in the step that
#: acknowledges it (the other four did not move).  ``op_instants_mini``
#: alone moved under the same protocol when a 2PC participant's commit
#: began probing as a Put does (its 2-shard cluster half is the only
#: window that runs 2PC).  ``matrices`` was added when the two sweeps
#: became tier-1 tests, together with the fence that keeps a ghost GC
#: pass's cleanup off the recovered log.  Before that fence one crash
#: cell's clock depended on when the garbage collector finalized the
#: ghost; with the collector off, the tree before that change hashes to
#: the same value.  ``matrices`` alone moved when each serving-tier worker
#: got a contiguous key slice, so that 2-shard cells run 2PC too.
#: ``crash_scenario`` and ``matrices`` moved under DESIGN.md's protocol
#: when a device process in flight at a cut began ending at the cut (only
#: the armed cells' clocks moved, each earlier; the other five did not).
EXPECTED = {
    "fig5_mini": "b74362e1849c1af9b142e74e0fda9160051647ed8ad37000b9389aaecf0eb63d",
    "fig10_mini": "3e99b52471f89f5bfeaa5cf1f6d95872f09176b5b75a64dc8e976e7041e715cc",
    "crash_scenario": "f3a91d1ca9679e78353b2caab9731d0ce4d8e763c1eb7da56d62b0b1b4333532",
    "prof_breakdown_mini": "29263d6fb9c84114b78bb87689442b794e90e7c86bdbec07151b76b0d1767e34",
    "ycsb_replay_mini": "122f35598415dd799bc7babe290506750465717b004ecbfd1494368977f16fa0",
    "op_instants_mini": "76ac7edb2d7cd340cd120fd8e0d9edff2d596bd53e2d3341c24f5a31a2493c24",
    "matrices": "4aac22aae58a86cf4f0cb53e8d430d732d9b3c7d9f9f37ef339c77f8736e7c35",
}


def test_fig5_mini_digest():
    assert digest(fig5_mini()) == EXPECTED["fig5_mini"]


def test_fig10_mini_digest():
    assert digest(fig10_mini()) == EXPECTED["fig10_mini"]


def test_crash_scenario_digest():
    assert digest(crash_scenario()) == EXPECTED["crash_scenario"]


def test_prof_breakdown_mini_digest():
    assert digest(prof_breakdown_mini()) == EXPECTED["prof_breakdown_mini"]


def test_ycsb_replay_mini_digest():
    payload = ycsb_replay_mini()
    # The replay must have re-issued the captured device-op sequence
    # exactly — checked in the clear before the digest pins the rest.
    assert payload["match"] is True
    assert digest(payload) == EXPECTED["ycsb_replay_mini"]


def test_op_instants_mini_digest():
    assert digest(op_instants_mini()) == EXPECTED["op_instants_mini"]


def test_matrices_digest(crash_matrix, serving_matrix):
    assert digest(matrices(crash_matrix, serving_matrix)) == EXPECTED["matrices"]


if __name__ == "__main__":
    for name, scenario in SCENARIOS.items():
        print(f'    "{name}": "{digest(scenario())}",')
