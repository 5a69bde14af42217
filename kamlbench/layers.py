"""Per-layer metrics: counters at window boundaries, cProfile by package,
and simulated-latency shares from the program's own spans.

A *layer* is a package under ``src/repro`` (``ftl`` holds the mapping
tables KAML probes, so it bills to ``kaml``), plus ``bench`` for the
harness itself.  Three sources feed the per-layer table:

* :func:`snapshot` / :func:`counter_metrics` — public counters read at
  the window's start and end (after the final drain), in every run;
* :func:`fold_profile` — a ``cProfile`` run folded by source path;
* :func:`span_metrics` — the program's ``Tracer`` spans folded by
  ``repro.obs.profile`` and ``COMPONENT_OWNERS``.
"""

from __future__ import annotations

import os
import pstats
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.stats import percentile
from repro.config import MIB
from repro.obs.diff import COMPONENT_OWNERS
from repro.obs.profile import analyze

from kamlbench.workloads import Workload

#: Layers that execute host code, in report order.
HOST_LAYERS = ("sim", "flash", "ssd", "kaml", "cache", "cluster", "obs", "bench")
#: Layers simulated latency can be billed to.
SIM_LAYERS = ("flash", "ssd", "kaml", "cache", "cluster")

_PACKAGE_LAYER = {
    "sim": "sim", "flash": "flash", "ssd": "ssd", "kaml": "kaml", "ftl": "kaml",
    "cache": "cache", "cluster": "cluster", "obs": "obs",
}
_REPRO_MARK = os.sep + "repro" + os.sep
_BENCH_MARK = os.sep + "kamlbench" + os.sep


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------

def _histogram_sum(registries: Iterable[Any], name: str) -> Tuple[int, float, List[int], Tuple[float, ...]]:
    """``(count, total, bucket_counts, bounds)`` of one histogram family
    summed over its label sets and over every registry."""
    count, total = 0, 0.0
    buckets: List[int] = []
    bounds: Tuple[float, ...] = ()
    for registry in registries:
        for histogram in registry.family(name).values():
            count += histogram.count
            total += histogram.total
            bounds = histogram.bounds
            if not buckets:
                buckets = [0] * len(histogram.bucket_counts)
            for i, n in enumerate(histogram.bucket_counts):
                buckets[i] += n
    return count, total, buckets, bounds


def snapshot(workload: Workload) -> Dict[str, Any]:
    """Cumulative public counters of the whole rig at this instant."""
    registries = workload.registries()

    def total(name: str, **labels: Any) -> float:
        return sum(registry.total(name, **labels) for registry in registries)

    snap: Dict[str, Any] = {
        "sim_us": workload.env.now,
        "events": workload.env.events_processed,
        "flash_reads": 0, "flash_programs": 0, "flash_erases": 0,
        "flash_chip_busy_us": 0.0, "flash_bus_busy_us": 0.0,
        "firmware_busy_us": 0.0, "pcie_bytes": 0,
    }
    for device in workload.devices:
        array = device.array
        snap["flash_reads"] += array.total_reads()
        snap["flash_programs"] += array.total_programs()
        snap["flash_erases"] += array.total_erases()
        snap["flash_chip_busy_us"] += sum(
            chip.stats.busy_us for _ch, _i, chip in array.iter_chips()
        )
        snap["flash_bus_busy_us"] += sum(ch.bus_busy_us for ch in array.channels)
        snap["firmware_busy_us"] += device.firmware.busy_us
        snap["pcie_bytes"] += device.link.bytes_to_device + device.link.bytes_to_host
    for key, name in (
        ("firmware_wait", "kaml.firmware.wait_us"),
        ("nvram_wait", "kaml.put.nvram_wait_us"),
        ("index_probes", "kaml.get.index_probes"),
        ("queue_wait", "cluster.queue.wait_us"),
    ):
        count, total_value, buckets, bounds = _histogram_sum(registries, name)
        snap[f"{key}_count"] = count
        snap[f"{key}_total"] = total_value
        snap[f"{key}_buckets"] = buckets
        snap[f"{key}_bounds"] = bounds
    for key, name in (
        ("wasted_chunks", "kaml.log.wasted_chunks"),
        ("timer_flushes", "kaml.log.timer_flushes"),
        ("programmed_pages", "kaml.log.programmed_pages"),
        ("gc_moved_bytes", "kaml.log.gc.moved_bytes"),
        ("gc_erased_blocks", "kaml.log.gc.erased_blocks"),
        ("relocation_chases", "kaml.get.relocation_chases"),
        ("cache_reads", "cache.reads"),
        ("cache_hits", "cache.hits"),
        ("cache_evictions", "cache.evictions"),
        ("cache_writebacks", "cache.writebacks"),
        ("lock_conflicts", "cache.lock.conflicts"),
        ("txn_begun", "store.txn.begun"),
        ("txn_aborted", "store.txn.aborted"),
        ("twopc_txns", "cluster.2pc.txns"),
        ("twopc_aborts", "cluster.2pc.aborts"),
        ("shed", "cluster.shed"),
    ):
        snap[key] = total(name)
    if workload.cluster is not None:
        snap["shard_completed"] = [
            total("cluster.sched.completed", shard=str(shard))
            for shard in sorted(workload.cluster.shards)
        ]
    return snap


def reset_high_water(workload: Workload) -> None:
    """Restart the NVRAM occupancy high-water marks at the window start."""
    for device in workload.devices:
        gauge = device.metrics.gauge("kaml.nvram.used_bytes")
        gauge.high_water = gauge.value


def bucket_percentile(buckets: Sequence[int], bounds: Sequence[float], fraction: float) -> float:
    """Percentile from histogram bucket counts, linear inside the bucket
    (resolution is the bucket width; the overflow bucket reports the
    last bound)."""
    total = sum(buckets)
    if total == 0:
        return 0.0
    rank = fraction * total
    seen = 0.0
    for i, n in enumerate(buckets):
        if n and seen + n >= rank:
            low = bounds[i - 1] if i > 0 else 0.0
            high = bounds[i] if i < len(bounds) else bounds[-1]
            return low + (high - low) * (rank - seen) / n
        seen += n
    return float(bounds[-1])


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counter_metrics(
    workload: Workload, before: Dict[str, Any], after: Dict[str, Any], ops: int, user_bytes: int
) -> Dict[str, float]:
    """The counter-derived per-layer metrics over one window."""

    def delta(key: str) -> float:
        return after[key] - before[key]

    def bucket_delta(key: str) -> List[int]:
        start = before[f"{key}_buckets"] or [0] * len(after[f"{key}_buckets"])
        return [b - a for a, b in zip(start, after[f"{key}_buckets"])]

    sim_us = delta("sim_us")
    geometry = workload.devices[0].geometry
    chips = sum(device.geometry.total_chips for device in workload.devices)
    channels = sum(device.geometry.channels for device in workload.devices)
    contexts = sum(device.firmware.contexts for device in workload.devices)
    pages = delta("programmed_pages")
    blocks_in_use, valid_bytes, nvram_peak = 0, 0, 0.0
    for device in workload.devices:
        report = device.utilization_report()
        total_blocks = device.geometry.total_chips * device.geometry.blocks_per_chip
        blocks_in_use += total_blocks - report["free_blocks"]
        valid_bytes += report["valid_bytes"]
        nvram_peak = max(nvram_peak, device.metrics.gauge("kaml.nvram.used_bytes").high_water)
    block_bytes = geometry.pages_per_block * geometry.page_size
    metrics = {
        "flash.reads_per_op": ratio(delta("flash_reads"), ops),
        "flash.programs_per_op": ratio(delta("flash_programs"), ops),
        "flash.erases_per_kop": ratio(delta("flash_erases") * 1000.0, ops),
        "flash.chip_util": ratio(delta("flash_chip_busy_us"), sim_us * chips),
        "flash.bus_util": ratio(delta("flash_bus_busy_us"), sim_us * channels),
        "ssd.firmware_util": ratio(delta("firmware_busy_us"), sim_us * contexts),
        "ssd.firmware_wait_p99_us": bucket_percentile(
            bucket_delta("firmware_wait"), after["firmware_wait_bounds"], 0.99
        ),
        "ssd.nvram_wait_mean_us": ratio(delta("nvram_wait_total"), delta("nvram_wait_count")),
        "ssd.nvram_peak_mb": nvram_peak / MIB,
        "ssd.pcie_bytes_per_op": ratio(delta("pcie_bytes"), ops),
        "kaml.index_probes_per_get": ratio(delta("index_probes_total"), delta("index_probes_count")),
        "kaml.log.wasted_chunk_share": ratio(
            delta("wasted_chunks") * geometry.chunk_size, pages * geometry.page_size
        ),
        "kaml.log.timer_flush_share": ratio(delta("timer_flushes"), pages),
        "kaml.gc.moved_bytes_per_user_byte": ratio(delta("gc_moved_bytes"), user_bytes),
        "kaml.gc.erased_blocks_per_kop": ratio(delta("gc_erased_blocks") * 1000.0, ops),
        "kaml.gc.relocation_chases_per_kop": ratio(delta("relocation_chases") * 1000.0, ops),
        "kaml.space_amp": ratio(blocks_in_use * block_bytes, valid_bytes),
        "cache.hit_rate": ratio(delta("cache_hits"), delta("cache_reads")),
        "cache.evictions_per_op": ratio(delta("cache_evictions"), ops),
        "cache.writebacks_per_op": ratio(delta("cache_writebacks"), ops),
        "cache.lock_conflicts_per_kop": ratio(delta("lock_conflicts") * 1000.0, ops),
        "cache.txn_abort_share": ratio(delta("txn_aborted"), delta("txn_begun")),
        "cluster.twopc_share": ratio(delta("twopc_txns"), ops),
        "cluster.twopc_abort_share": ratio(delta("twopc_aborts"), delta("twopc_txns")),
        "cluster.queue_wait_p99_us": bucket_percentile(
            bucket_delta("queue_wait"), after["queue_wait_bounds"], 0.99
        ) if after["queue_wait_count"] else 0.0,
        "cluster.shed_share": ratio(delta("shed"), ops),
        "cluster.shard_imbalance": 0.0,
    }
    if "shard_completed" in after:
        per_shard = [b - a for a, b in zip(before["shard_completed"], after["shard_completed"])]
        metrics["cluster.shard_imbalance"] = ratio(max(per_shard), sum(per_shard) / len(per_shard))
    return metrics


# ---------------------------------------------------------------------------
# cProfile folded by package
# ---------------------------------------------------------------------------

def layer_of_path(filename: str) -> Optional[str]:
    """The layer a source file bills to; None for code outside every
    layer (builtins, the standard library, ``repro``'s top-level
    modules), which bills to its callers."""
    if _BENCH_MARK in filename:
        return "bench"
    at = filename.rfind(_REPRO_MARK)
    if at < 0:
        return None
    package = filename[at + len(_REPRO_MARK):].split(os.sep, 1)[0]
    return _PACKAGE_LAYER.get(package)


def _fold(stats: Dict[Any, Any], own: int, edge: int, up: int) -> Dict[str, float]:
    """Sum one column of a pstats table by layer.

    ``own`` indexes a function's row ``(cc, nc, tt, ct)``; ``edge`` and
    ``up`` index a caller edge ``(nc, cc, tt, ct)``.  A function inside a
    layer bills its own column there.  A function outside every layer
    bills each caller edge's ``edge`` column to the caller's layer; when
    the caller is outside every layer too, the amount is passed on to
    *its* callers in proportion to their ``up`` column.  Anything that
    reaches a root (or a cycle) bills to ``bench``.
    """
    totals = {layer: 0.0 for layer in HOST_LAYERS}
    mixes: Dict[Any, Dict[str, float]] = {}
    resolving: set = set()

    def mix_of(func: Any) -> Dict[str, float]:
        """Which layers ``func`` works for, as shares summing to 1."""
        known = mixes.get(func)
        if known is not None:
            return known
        layer = layer_of_path(func[0])
        if layer is not None:
            result = {layer: 1.0}
        else:
            resolving.add(func)
            weights = {
                caller: row[up]
                for caller, row in stats[func][4].items()
                if caller not in resolving
            }
            scale = sum(weights.values())
            result = {}
            if scale > 0:
                for caller in sorted(weights):
                    for name, part in mix_of(caller).items():
                        result[name] = result.get(name, 0.0) + part * weights[caller] / scale
            resolving.discard(func)
            if not result:
                result = {"bench": 1.0}
        mixes[func] = result
        return result

    for func in sorted(stats):
        row = stats[func]
        layer = layer_of_path(func[0])
        if layer is not None:
            totals[layer] += row[own]
        elif not row[4]:
            totals["bench"] += row[own]
        else:
            for caller in sorted(row[4]):
                for name, part in mix_of(caller).items():
                    totals[name] += row[4][caller][edge] * part
    return totals


def fold_profile(profiler: Any, ops: int) -> Dict[str, float]:
    """``<layer>.host_self_share`` (summing to 1) and exact
    ``<layer>.calls_per_op`` from a finished ``cProfile.Profile``."""
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    self_time = _fold(stats, own=2, edge=2, up=3)
    calls = _fold(stats, own=1, edge=0, up=0)
    total_time = sum(self_time.values())
    metrics: Dict[str, float] = {}
    for layer in HOST_LAYERS:
        share = ratio(self_time[layer], total_time)
        if layer == "bench":
            metrics["bench.driver_host_self_share"] = share
        else:
            metrics[f"{layer}.host_self_share"] = share
        metrics[f"{layer}.calls_per_op"] = ratio(calls[layer], ops)
    return metrics


# ---------------------------------------------------------------------------
# Simulated-latency shares and percentiles from the program's spans
# ---------------------------------------------------------------------------

def _durations(events: Iterable[Any], name: str) -> List[float]:
    return sorted(e.duration_us for e in events if e.name == name and e.end_us is not None)


def span_metrics(workload: Workload) -> Dict[str, float]:
    """``<layer>.sim_share`` (summing to 1) plus the latency percentiles
    only spans give exactly, from the armed tracers' recorders.

    Shares are kamlprof's exact-accounting attribution of every
    host-visible request window, folded from components to layers by
    ``COMPONENT_OWNERS``.  The cluster tier keeps its own tracer, and its
    request windows enclose the devices' windows for the same ops, so the
    ``cluster`` share is what the cluster windows hold beyond the device
    windows inside them.
    """
    device_events: List[Any] = []
    for device in workload.devices:
        recorder = device.tracer.recorder
        if recorder.dropped:
            raise RuntimeError(f"{workload.name}: flight recorder dropped {recorder.dropped} spans")
        device_events.append(recorder.events())
    layer_us = {layer: 0.0 for layer in SIM_LAYERS}
    for events in device_events:
        for by_namespace in analyze(events, top_n=0)["requests"].values():
            for bucket in by_namespace.values():
                for component, row in bucket["components"].items():
                    layer = COMPONENT_OWNERS.get(component, "").split(".", 1)[0]
                    if layer in layer_us:
                        layer_us[layer] += row["us"]
    cluster_events: List[Any] = []
    if workload.cluster is not None:
        recorder = workload.cluster.tracer.recorder
        if recorder.dropped:
            raise RuntimeError(f"{workload.name}: cluster recorder dropped {recorder.dropped} spans")
        cluster_events = recorder.events()
        client_us = sum(
            bucket["total_us"]
            for by_namespace in analyze(cluster_events, top_n=0)["requests"].values()
            for bucket in by_namespace.values()
        )
        layer_us["cluster"] = max(0.0, client_us - sum(layer_us.values()))
    total_us = sum(layer_us.values())
    metrics = {f"{layer}.sim_share": ratio(us, total_us) for layer, us in layer_us.items()}
    flat = [event for events in device_events for event in events]
    gets = _durations(flat, "kaml.get")
    twopc = _durations(cluster_events, "cluster.2pc")
    metrics.update({
        "kaml.get_p50_us": percentile(gets, 0.50),
        "kaml.get_p99_us": percentile(gets, 0.99),
        "kaml.put_phase1_p50_us": percentile(_durations(flat, "put.phase1"), 0.50),
        "kaml.put_phase2_p50_us": percentile(_durations(flat, "put.phase2"), 0.50),
        "cluster.twopc_p50_us": percentile(twopc, 0.50),
        "cluster.twopc_p99_us": percentile(twopc, 0.99),
    })
    return metrics
