"""Cluster serving-tier driver: ``python -m repro.harness cluster``.

The CI front door for :mod:`repro.cluster`.  Each cell of the matrix
(shard count x seed) builds a cluster, drives the multi-tenant workload
(:mod:`repro.workloads.multitenant`) plus a deliberately skewed homed
namespace, lets the autobalancer migrate that namespace off the hot
shard mid-run, then drains and verifies every acknowledged write
through the serving tier.  A verdict table goes to stdout (and
``GITHUB_STEP_SUMMARY`` when present); ``--json-out`` writes the full
report including the aggregate throughput and rebalance-latency numbers
the perf gate consumes; failing cells dump their flight recorder::

    python -m repro.harness cluster --shards 4 --seeds 3
    python -m repro.harness cluster --shards 2,4,8 --seeds 1,2,3 \\
        --json-out cluster.json --flight-dir artifacts/
"""

from __future__ import annotations

import argparse
from random import Random
from typing import Any, Dict, List

from repro.cluster import (
    Autobalancer,
    ClusterConfig,
    HotShardDetector,
    KamlCluster,
    install_cluster_probes,
)
from repro.fault.harness import default_device_config
from repro.harness.reporting import emit, parse_int_list, shared_options, step_summary
from repro.obs import TimeSeriesCollector
from repro.sim import Environment
from repro.workloads import MultiTenantWorkload

#: The homed namespace every cell skews: enough serial writes to trip
#: hot-shard detection so the autobalancer migrates it mid-run.
HOT_NAMESPACE = "hot-homed"
HOT_TENANT = "gold"
HOT_KEYS = 24
HOT_OPS = 240
HOT_VALUE_SIZE = 420
HOT_THINK_US = (5.0, 30.0)
#: With the background tenants hashed across every shard, the homed
#: shard's excess over the mean tops out near 2x at two shards — a 1.5x
#: trigger would need the skew writer to out-issue the whole background
#: population, so the cells run the detector at a gentler ratio.
HOT_RATIO = 1.2


def _hot_writer(env: Environment, cluster: KamlCluster, seed: int,
                model: Dict[int, Any]) -> Any:
    """Single serial writer hammering the homed namespace."""
    rng = Random(seed * 7_368_787 + 11)
    for op in range(HOT_OPS):
        think_us = rng.uniform(*HOT_THINK_US)
        env.try_advance(think_us) or (yield env.timeout(think_us))
        key = rng.randrange(HOT_KEYS)
        value = ("hot", key, op)
        yield from cluster.put(
            HOT_NAMESPACE, [(key, value, HOT_VALUE_SIZE)]
        )
        model[key] = value


def run_cluster_cell(
    num_shards: int,
    seed: int,
    collector_interval_us: float = 2_000.0,
    balance_interval_us: float = 8_000.0,
) -> Dict[str, Any]:
    """One (shard count, seed) cell: workload + mid-run rebalance + verify."""
    env = Environment()
    cluster = KamlCluster.build(
        env, default_device_config(), ClusterConfig(num_shards=num_shards)
    )
    collector = TimeSeriesCollector(env, interval_us=collector_interval_us)
    install_cluster_probes(collector, cluster)
    collector.start()
    detector = HotShardDetector(collector, cluster, hot_ratio=HOT_RATIO)
    balancer = Autobalancer(
        cluster, detector,
        check_interval_us=balance_interval_us, max_migrations=2,
    )
    workload = MultiTenantWorkload(env, cluster, seed=seed)
    hot_model: Dict[int, Any] = {}
    failures: List[str] = []

    def drive() -> Any:
        yield from workload.setup()
        yield from cluster.create_namespace(
            HOT_NAMESPACE, tenant=HOT_TENANT, mode="homed", home_shard=0
        )
        balancer.start()
        hot_proc = env.process(_hot_writer(env, cluster, seed, hot_model))
        yield from workload.run()
        yield hot_proc
        collector.stop()
        yield from cluster.drain()
        failures.extend((yield from workload.verify()))
        for key in sorted(hot_model):
            observed = yield from cluster.get(HOT_NAMESPACE, key)
            if observed != hot_model[key]:
                failures.append(
                    f"{HOT_NAMESPACE}[{key}]: expected {hot_model[key]!r}, "
                    f"got {observed!r}"
                )

    proc = env.process(drive())
    try:
        env.run_until(proc)
    except Exception as exc:  # a cell must never take down the matrix
        failures.append(f"cell crashed: {type(exc).__name__}: {exc}")

    summary = workload.summary()
    migrated = list(balancer.migrations)
    if not migrated:
        failures.append(
            "autobalancer never migrated the homed namespace; the hot-shard "
            "signal or the rebalance path is broken"
        )
    rebalance_p99 = cluster.metrics.histogram("cluster.rebalance.us").percentile(0.99)
    total_ops = summary["total_ops"] + HOT_OPS
    elapsed_us = summary["elapsed_us"]
    return {
        "ok": not failures,
        "failures": failures,
        "shards": num_shards,
        "seed": seed,
        "total_ops": total_ops,
        "ops_per_sec": round(total_ops * 1e6 / elapsed_us, 3) if elapsed_us else 0.0,
        "total_sheds": summary["total_sheds"],
        "tenants": summary["tenants"],
        "rebalances": int(cluster.metrics.total("cluster.rebalances")),
        "rebalance_p99_us": round(rebalance_p99, 3),
        "migrations": [
            {"namespace": name, "source": source, "target": target}
            for name, source, target in migrated
        ],
        "sim_time_us": env.now,
        "recorder": cluster.tracer.recorder,
    }


def run_cluster_cells(
    shard_counts: List[int], seeds: List[int]
) -> Dict[str, Any]:
    """The full matrix, plus the aggregate numbers the perf gate reads."""
    cells = [
        run_cluster_cell(num_shards, seed)
        for num_shards in shard_counts
        for seed in seeds
    ]
    ok_cells = [cell for cell in cells if cell["ok"]]
    throughput = (
        sum(cell["ops_per_sec"] for cell in ok_cells) / len(ok_cells)
        if ok_cells else 0.0
    )
    rebalance_p99 = max(
        (cell["rebalance_p99_us"] for cell in ok_cells), default=0.0
    )
    return {
        "ok": all(cell["ok"] for cell in cells),
        "shards": list(shard_counts),
        "seeds": list(seeds),
        "cells": cells,
        "ops_per_sec": round(throughput, 3),
        "rebalance_p99_us": round(rebalance_p99, 3),
    }


def _cell_row(cell: Dict[str, Any]) -> str:
    status = "ok" if cell["ok"] else "FAIL"
    detail = "" if cell["ok"] else f'  {"; ".join(cell["failures"][:2])}'
    return (
        f"  [{status:>4}] shards {cell['shards']:>2}  seed {cell['seed']:>3}  "
        f"{cell['ops_per_sec']:>9.0f} ops/s  "
        f"rebalances {cell['rebalances']}  sheds {cell['total_sheds']}{detail}"
    )


def _aggregate(report: Dict[str, Any]) -> str:
    return (
        f"aggregate: {report['ops_per_sec']:.0f} ops/s, "
        f"rebalance p99 {report['rebalance_p99_us']:.0f} us"
    )


def summary(report: Dict[str, Any]) -> str:
    """The matrix as the step-summary markdown table plus the aggregate."""
    table = step_summary(
        "Cluster serving-tier matrix",
        [
            ("shards", "---:", lambda cell: cell["shards"]),
            ("seed", "---:", lambda cell: cell["seed"]),
            ("ops/s", "---:", lambda cell: f"{cell['ops_per_sec']:.0f}"),
            ("rebalances", "---:", lambda cell: cell["rebalances"]),
            ("rebalance p99 (us)", "---:", lambda cell: f"{cell['rebalance_p99_us']:.0f}"),
            ("sheds", "---:", lambda cell: cell["total_sheds"]),
        ],
        report["cells"],
    )
    return f"{table}\n{_aggregate(report)}\n"


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--shards", default="4",
        help="comma-separated shard counts (default: 4)",
    )
    parser.add_argument(
        "--seeds", default="1,2,3",
        help="comma-separated workload seeds (default: 1,2,3)",
    )
    shared_options(parser, json_out=None)
    parser.add_argument(
        "--flight-dir", default=None,
        help="dump flight-recorder JSONL for each failing cell here",
    )


def run(args: argparse.Namespace) -> int:
    shard_counts = parse_int_list(args.shards, "--shards")
    seeds = parse_int_list(args.seeds, "--seeds")
    report = run_cluster_cells(shard_counts, seeds)

    print(f"cluster matrix: shards {shard_counts}, seeds {seeds}")
    for cell in report["cells"]:
        print(_cell_row(cell))
    print(_aggregate(report))

    return emit(
        report, args, summary(report), "cluster matrix",
        lambda cell: "python -m repro.harness cluster "
                     f"--shards {cell['shards']} --seeds {cell['seed']}",
        "every acknowledged write read back intact",
    )
