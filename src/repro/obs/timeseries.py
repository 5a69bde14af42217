"""Sim-time device telemetry: a bounded ring of fixed-interval samples.

The profiler (``repro.obs.profile``) explains single requests; the
time-series collector shows the device breathing — per-channel bus and
per-chip engine utilization, queue depths, NVRAM occupancy, GC debt,
per-namespace op rate and cache hit rate — sampled on a fixed simulated
interval.  This is the raw signal hot-shard detection and diurnal
workload replays will consume.

Pay-as-you-go, like a disarmed tracer (``ctx=None``): nothing is
constructed and no simulation process exists until a harness opts in
(``KamlSsd.enable_timeseries`` / ``repro.harness prof``), so default
runs schedule zero extra events and every determinism digest and
perf-gate ``sim_events`` count is untouched.

Probes are plain zero-argument callables registered by name —
``add_probe`` samples the value as-is (gauges: occupancy, queue depth),
``add_delta_probe`` samples the increase since the previous tick times
an optional scale (monotonic accumulators: busy-microsecond counters
become utilization fractions, op counters become per-interval rates).
The sample ring is bounded; once full, the oldest samples fall out and
``dropped`` counts what was lost — telemetry must never grow without
bound inside a long simulation.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.sim import Environment


class _DeltaProbe:
    """Wraps a monotonic counter into a per-interval delta probe."""

    __slots__ = ("fn", "scale", "prev")

    def __init__(self, fn: Callable[[], float], scale: float):
        self.fn = fn
        self.scale = scale
        self.prev: Optional[float] = None

    def __call__(self) -> float:
        current = float(self.fn())
        delta = 0.0 if self.prev is None else current - self.prev
        self.prev = current
        return delta * self.scale


class TimeSeriesCollector:
    """Fixed-interval sampler over registered probes (simulated time)."""

    def __init__(self, env: Environment, interval_us: float = 1000.0,
                 capacity: int = 4096):
        if interval_us <= 0:
            raise ValueError("interval_us must be positive")
        self.env = env
        self.interval_us = float(interval_us)
        self.capacity = int(capacity)
        self.samples: Deque[Dict[str, float]] = deque(maxlen=self.capacity)
        self.dropped = 0
        self._probes: List[Any] = []  # (name, callable) pairs, sample order
        self._names: Dict[str, bool] = {}
        self._running = False

    # -- probe registry ----------------------------------------------------

    def add_probe(self, name: str, fn: Callable[[], float]) -> None:
        """Sample ``fn()`` as-is each tick (gauges: depth, occupancy)."""
        if name in self._names:
            raise ValueError(f"duplicate time-series probe: {name!r}")
        self._names[name] = True
        self._probes.append((name, fn))

    def add_delta_probe(self, name: str, fn: Callable[[], float],
                        scale: float = 1.0) -> None:
        """Sample the increase of ``fn()`` since the last tick, scaled.

        ``scale=1/interval_us`` turns a busy-microsecond accumulator into
        a utilization fraction; ``scale=1.0`` turns an op counter into an
        ops-per-interval rate.
        """
        self.add_probe(name, _DeltaProbe(fn, scale))

    @property
    def series(self) -> List[str]:
        return [name for name, _fn in self._probes]

    # -- sampling ----------------------------------------------------------

    def sample_now(self) -> Dict[str, float]:
        """Take one sample immediately (the run loop calls this; harness
        code may call it once more after a drain to capture the end state)."""
        row: Dict[str, float] = {"t_us": float(self.env.now)}
        for name, fn in self._probes:
            row[name] = float(fn())
        if len(self.samples) == self.capacity:
            self.dropped += 1
        self.samples.append(row)
        return row

    def start(self) -> None:
        """Launch the sampling process.  Opt-in only: this is the single
        place the collector adds events to the simulation."""
        if self._running:
            return
        self._running = True
        self.env.process(self._run())

    def stop(self) -> None:
        """Stop at the next tick (the pending timeout fires, sees the
        flag, and the process exits without sampling)."""
        self._running = False

    def _run(self) -> Any:
        while self._running:
            self.env.try_advance(self.interval_us) or (yield self.env.timeout(self.interval_us))
            if not self._running:
                return
            self.sample_now()

    # -- export ------------------------------------------------------------

    def to_builtin(self) -> Dict[str, Any]:
        """JSON-ready: schema documented in docs/profiling.md."""
        return {
            "interval_us": self.interval_us,
            "capacity": self.capacity,
            "dropped": self.dropped,
            "series": self.series,
            "samples": list(self.samples),
        }

    def write_json(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_builtin(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-series ``{min, mean, max, last}`` over the retained ring."""
        out: Dict[str, Dict[str, float]] = {}
        for name in self.series:
            values = [row[name] for row in self.samples if name in row]
            if not values:
                continue
            out[name] = {
                "min": min(values),
                "mean": sum(values) / len(values),
                "max": max(values),
                "last": values[-1],
            }
        return out


def install_device_probes(collector: TimeSeriesCollector, ssd: Any) -> None:
    """Register the canonical KAML device probes on ``collector``.

    Duck-typed against :class:`repro.kaml.ssd.KamlSsd` (obs must not
    import the kaml package).  Covers: per-channel bus utilization and
    queue depth, per-chip engine utilization, firmware run-queue depth,
    NVRAM occupancy and reservation back-pressure, per-log free blocks
    (GC debt), and per-namespace Get/Put rates plus cache hit rate.
    """
    interval = collector.interval_us
    util = 1.0 / interval
    for channel in ssd.array.channels:
        collector.add_delta_probe(
            f"chan{channel.index}.bus_util",
            (lambda ch: lambda: ch.bus_busy_us)(channel), scale=util,
        )
        collector.add_probe(
            f"chan{channel.index}.bus_queue",
            (lambda ch: lambda: ch.bus.queue_length)(channel),
        )
        for chip_index, chip in enumerate(channel.chips):
            collector.add_delta_probe(
                f"chan{channel.index}.chip{chip_index}.util",
                (lambda c: lambda: c.stats.busy_us)(chip), scale=util,
            )
    collector.add_probe("firmware.queue", lambda: ssd.firmware.queue_depth)
    collector.add_probe("nvram.used_bytes", lambda: ssd.nvram.used_bytes)
    collector.add_probe(
        "nvram.pending_reservations", lambda: ssd.nvram.pending_reservations
    )
    for log in ssd.logs:
        collector.add_probe(
            f"log{log.log_id}.free_blocks",
            (lambda lg: lambda: lg.free_blocks)(log),
        )
    metrics = ssd.metrics

    def _cache_hit_rate() -> float:
        hits = metrics.total("cache.hits")
        misses = metrics.total("cache.misses")
        return hits / (hits + misses) if hits + misses > 0 else 0.0

    collector.add_probe("cache.hit_rate", _cache_hit_rate)
    for namespace_id in sorted(ssd.namespaces):
        collector.add_delta_probe(
            f"ns{namespace_id}.gets",
            (lambda ns: lambda: metrics.total("kaml.ssd.gets", namespace=ns))(
                namespace_id
            ),
        )
        collector.add_delta_probe(
            f"ns{namespace_id}.put_bytes",
            (lambda ns: lambda: metrics.total("kaml.put.bytes", namespace=ns))(
                namespace_id
            ),
        )
