"""JSON exporters for a :class:`MetricsRegistry`.

``to_builtin`` produces a JSON-ready dict; ``to_json`` serialises it.
The export also computes the derived headline metrics the evaluation
cares about — GC write amplification and cache hit rate — from their
raw counters, so a registry dump is directly comparable across PRs (the
CI smoke-bench job uploads one per run).
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.obs.registry import MetricsRegistry


def derived_metrics(registry: MetricsRegistry) -> Dict[str, float]:
    """Headline ratios computed from raw counters (absent inputs -> {})."""
    derived: Dict[str, float] = {}
    host_bytes = registry.total("kaml.log.append_bytes", stream="host")
    gc_bytes = registry.total("kaml.log.append_bytes", stream="gc")
    if host_bytes > 0:
        derived["kaml.gc.write_amplification"] = (host_bytes + gc_bytes) / host_bytes
    hits = registry.total("cache.hits")
    misses = registry.total("cache.misses")
    if hits + misses > 0:
        derived["cache.hit_rate"] = hits / (hits + misses)
    ftl_host = registry.total("ftl.host_write_bytes")
    ftl_gc = registry.total("ftl.gc.relocated_bytes")
    if ftl_host > 0:
        derived["ftl.gc.write_amplification"] = (ftl_host + ftl_gc) / ftl_host
    return derived


def to_builtin(registry: MetricsRegistry) -> Dict[str, Any]:
    """The registry as plain dicts/lists, ready for ``json.dump``."""
    counters: Dict[str, Any] = {}
    gauges: Dict[str, Any] = {}
    histograms: Dict[str, Any] = {}
    for instrument in registry.instruments():
        section = {
            "counter": counters,
            "gauge": gauges,
            "histogram": histograms,
        }[instrument.kind]
        section[instrument.key_string()] = instrument.export()
    return {
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
        "derived": derived_metrics(registry),
    }


def to_json(registry: MetricsRegistry, indent: int = 2) -> str:
    return json.dumps(to_builtin(registry), indent=indent, sort_keys=True)


def write_json(registry: MetricsRegistry, path: str) -> None:
    with open(path, "w") as handle:
        handle.write(to_json(registry))
        handle.write("\n")

