#!/usr/bin/env python
"""The KAML caching layer as a NoSQL key-value store (Section V-E).

Runs a small YCSB workload-A mix (50 % reads / 50 % updates, zipfian
keys) through the caching layer, then prints cache behaviour and
throughput, and contrasts it with the same mix on the Shore-MT-style
baseline engine.

Run:  python examples/nosql_store.py
"""

from repro.harness import build_kaml_store, build_shore_engine, format_kv
from repro.workloads import KamlAdapter, ShoreAdapter, Ycsb

RECORDS = 600
THREADS = 8
OPS_PER_THREAD = 25


def run_kaml():
    env, ssd, store = build_kaml_store(cache_bytes=RECORDS * 1024 // 2)
    adapter = KamlAdapter(store)
    ycsb = Ycsb(env, adapter, records=RECORDS, workload="a", seed=5)
    ycsb.setup()
    result = ycsb.run(threads=THREADS, ops_per_thread=OPS_PER_THREAD)
    hits = store.metrics.total("cache.hits")
    print(format_kv("KAML caching layer, YCSB-A", {
        "operations": result.transactions,
        "throughput ops/s": result.tps,
        "mean latency us": result.mean_latency_us,
        "cache hit ratio": hits / (hits + store.metrics.total("cache.misses")),
        "cache evictions": int(store.metrics.total("cache.evictions")),
        "deadlock aborts": result.aborts,
    }))
    return result.tps


def run_shore():
    env, engine = build_shore_engine(pool_pages=RECORDS // 4)
    adapter = ShoreAdapter(engine)
    ycsb = Ycsb(env, adapter, records=RECORDS, workload="a", seed=5)
    ycsb.setup()
    result = ycsb.run(threads=THREADS, ops_per_thread=OPS_PER_THREAD)
    print(format_kv("Shore-MT baseline, YCSB-A", {
        "operations": result.transactions,
        "throughput ops/s": result.tps,
        "mean latency us": result.mean_latency_us,
        "pool hit ratio": engine.pool.stats.hit_ratio,
        "WAL fsyncs": engine.fs.fsyncs,
        "deadlock aborts": result.aborts,
    }))
    return result.tps


def main() -> None:
    kaml_tps = run_kaml()
    print()
    shore_tps = run_shore()
    print(f"\nKAML / Shore-MT speedup: {kaml_tps / shore_tps:.2f}x "
          f"(paper reports 1.1x - 3.0x across the YCSB mixes)")
    assert kaml_tps > shore_tps, "KAML should outrun the baseline on YCSB-A"


if __name__ == "__main__":
    main()
