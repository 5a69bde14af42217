"""Fixed-seed result digests across the scheduler rewrite.

Each scenario runs a miniature but fully representative workload with a
pinned seed and hashes the *results* (figure rows, crash verdicts,
simulated clock) into a SHA-256 digest.  The expected values were
captured on the pre-rewrite tuple-heap kernel; the rewritten scheduler
must reproduce them bit-for-bit — same seeds, same results.

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
from typing import Any, Dict

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

    from repro.harness.prof_cli import build_parser
    from repro.harness.prof_cli import run as run_prof

    args = build_parser().parse_args([
        "--workload", "mixed", "--ops", "80", "--threads", "2",
        "--key-space", "64", "--seed", "13", "--no-timeseries",
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


SCENARIOS = {
    "fig5_mini": fig5_mini,
    "fig10_mini": fig10_mini,
    "crash_scenario": crash_scenario,
    "prof_breakdown_mini": prof_breakdown_mini,
    "ycsb_replay_mini": ycsb_replay_mini,
}

#: Captured on the pre-rewrite kernel (commit ad2ae2b lineage); see
#: module docstring before touching these.  All but ``fig5_mini`` (which
#: did not move) were re-pinned once, under DESIGN.md's model re-pin
#: protocol, for rate-adaptive log striping + the quiescence flush timer;
#: ``crash_scenario`` alone moved again, under the same protocol, when dies
#: began suspending pulses for host reads (its audit Gets and GC overlap).
EXPECTED = {
    "fig5_mini": "af7d64f5fcad938e8f0d518189165ff7330b0ffefebfa9f3f0173761e177b3a9",
    "fig10_mini": "e560a9c13846124bd1c17d3e19e8486bad82325c04c41faa45f6d372d178bb08",
    "crash_scenario": "d266baaab050014dc4bdac06b252d52a788f7e52a6c53e9dbc5ef857778178e9",
    "prof_breakdown_mini": "29263d6fb9c84114b78bb87689442b794e90e7c86bdbec07151b76b0d1767e34",
    "ycsb_replay_mini": "122f35598415dd799bc7babe290506750465717b004ecbfd1494368977f16fa0",
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


if __name__ == "__main__":
    for name, scenario in SCENARIOS.items():
        print(f'    "{name}": "{digest(scenario())}",')
