"""JSON and plaintext exporters for a :class:`MetricsRegistry`.

``to_builtin`` produces a JSON-ready dict; ``to_json`` serialises it.
``to_text`` renders fixed-width tables for terminal reports (the shape
``repro.harness.reporting`` uses).  The export also computes the derived
headline metrics the evaluation cares about — GC write amplification and
cache hit rate — from their raw counters, so a registry dump is directly
comparable across PRs (the CI smoke-bench job uploads one per run).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

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


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    if 0.0 < abs(value) < 1e-3:
        # Sub-nanosecond values would render as "0.000"; scientific
        # notation keeps them distinguishable (and stable across runs).
        return f"{value:.3e}"
    return f"{value:.3f}"


def to_text(registry: MetricsRegistry, title: str = "metrics") -> str:
    """Fixed-width plaintext report: counters/gauges, then histogram rows."""
    lines: List[str] = [title, "=" * max(1, len(title))]
    scalar_rows: List[List[str]] = []
    for instrument in registry.instruments():
        if instrument.kind == "counter":
            scalar_rows.append([instrument.key_string(), _fmt(instrument.value)])
        elif instrument.kind == "gauge":
            scalar_rows.append([
                instrument.key_string(),
                f"{_fmt(instrument.value)} (high {_fmt(instrument.high_water)})",
            ])
    if scalar_rows:
        width = max(len(row[0]) for row in scalar_rows)
        lines.extend(f"{name.ljust(width)}  {value}" for name, value in scalar_rows)
    histogram_rows: List[List[str]] = []
    for instrument in registry.instruments():
        if instrument.kind != "histogram":
            continue
        summary = instrument.summary()
        histogram_rows.append([
            instrument.key_string(),
            _fmt(summary["count"]),
            _fmt(summary["mean"]),
            _fmt(summary["p50"]),
            _fmt(summary["p95"]),
            _fmt(summary["p99"]),
            _fmt(summary["max"]),
        ])
    if histogram_rows:
        headers = ["histogram", "count", "mean", "p50", "p95", "p99", "max"]
        widths = [
            max(len(headers[col]), *(len(row[col]) for row in histogram_rows))
            for col in range(len(headers))
        ]
        lines.append("")
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
        lines.append("  ".join("-" * w for w in widths))
        lines.extend(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in histogram_rows
        )
    derived = derived_metrics(registry)
    if derived:
        lines.append("")
        width = max(len(name) for name in derived)
        lines.extend(f"{name.ljust(width)}  {derived[name]:.4f}" for name in sorted(derived))
    return "\n".join(lines)

