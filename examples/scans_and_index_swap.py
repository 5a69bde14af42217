#!/usr/bin/env python
"""Scan, snapshots and the index swap: the rest of the command table.

Part 1 — a sorted namespace (Section IV-C's per-namespace index choice)
through the caching layer: a range Scan, then a snapshot that keeps
answering with the old value after the key is overwritten.

Part 2 — the index swap (Section IV-C): close a namespace to move its
mapping table out of the SSD's DRAM, see a Get refused, open it again
and read the value back.

Part 3 — a Scan over a namespace hashed across two shards of the
serving tier: each shard scans its part, and the tier merges them in key
order.

Every part asserts what it prints, so a broken command fails the run.

Run:  python examples/scans_and_index_swap.py
"""

from repro.cluster import ClusterConfig, KamlCluster, TenantPolicy
from repro.config import ReproConfig
from repro.harness import build_kaml_store
from repro.kaml import NamespaceAttributes, NamespaceError
from repro.sim import Environment

SORTED = NamespaceAttributes(expected_keys=64, index_structure="sorted")


def run(env, gen):
    proc = env.process(gen)
    env.run_until(proc)
    return proc.value


def scan_and_snapshot_demo() -> None:
    print("=== Part 1: Scan and snapshots through the store ===")
    env, ssd, store = build_kaml_store(cache_bytes=64 * 1024, config=ReproConfig.small())

    def flow():
        nsid = yield from store.create_namespace(SORTED)
        for key in range(10):
            yield from store.put(nsid, key, f"v1-{key}", 256)
        window = yield from store.scan(nsid, 3, 6)
        snap = yield from store.snapshot(nsid)
        yield from store.put(nsid, 4, "v2-4", 256)
        current = yield from store.get(nsid, 4)
        frozen = yield from store.get_from_snapshot(snap, 4)
        yield from store.drop_snapshot(snap)
        return window, current, frozen

    window, current, frozen = run(env, flow())
    print(f"Scan(3, 6) -> {window}")
    print(f"key 4 now: {current!r}; in the snapshot: {frozen!r}")
    assert window == [(key, f"v1-{key}") for key in range(3, 7)]
    assert (current, frozen) == ("v2-4", "v1-4")
    assert ssd.snapshots == {}


def index_swap_demo() -> None:
    print("\n=== Part 2: swapping a mapping table out of DRAM and back ===")
    env, ssd, store = build_kaml_store(cache_bytes=64 * 1024, config=ReproConfig.small())
    nsid = run(env, store.create_namespace(NamespaceAttributes(expected_keys=64)))
    run(env, store.put(nsid, 7, "seven", 512))
    resident = ssd.dram.used_bytes
    run(env, ssd.close_namespace(nsid))
    closed = ssd.dram.used_bytes
    try:
        run(env, ssd.get(nsid, 7))
    except NamespaceError as exc:
        refused = str(exc)
    else:
        raise AssertionError("a Get of a closed namespace must be refused")
    run(env, ssd.open_namespace(nsid))
    value = run(env, ssd.get(nsid, 7))
    print(f"DRAM: {resident} B resident, {closed} B closed; Get refused: {refused}")
    print(f"after open: Get(7) -> {value!r}")
    assert closed < resident == ssd.dram.used_bytes
    assert value == "seven"


def cluster_scan_demo() -> None:
    print("\n=== Part 3: a Scan across two shards ===")
    env = Environment()
    cluster = KamlCluster.build(env, ReproConfig.small(), ClusterConfig(num_shards=2))
    cluster.register_tenant(TenantPolicy("demo", latency_budget_us=50_000.0))

    def flow():
        yield from cluster.create_namespace("catalog", tenant="demo", attributes=SORTED)
        for key in range(12):
            yield from cluster.put("catalog", [(key, f"item-{key}", 200)])
        merged = yield from cluster.scan("catalog", 2, 9)
        return merged

    merged = run(env, flow())
    placement = cluster.placement.get("catalog")
    per_shard = {
        shard: run(env, device.list_keys(placement.local_ns(shard)))
        for shard, device in sorted(cluster.shards.items())
    }
    print(f"keys per shard: {per_shard}")
    print(f"Scan(2, 9) -> {merged}")
    assert all(per_shard.values()), "the keys should straddle both shards"
    assert merged == [(key, f"item-{key}") for key in range(2, 10)]


def main() -> None:
    scan_and_snapshot_demo()
    index_swap_demo()
    cluster_scan_demo()


if __name__ == "__main__":
    main()
