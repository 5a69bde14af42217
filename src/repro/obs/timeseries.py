"""Sim-time telemetry: a bounded ring of fixed-interval samples.

The cluster autobalancer (:mod:`repro.cluster.balance`) is its one user:
per shard, a delta probe turns the device's command counters into an
ops-per-interval rate and a gauge probe samples the scheduler queue
depth, and the hot-shard detector reads the retained ring.

Pay-as-you-go, like a disarmed tracer (``ctx=None``): nothing is
constructed and no simulation process exists until a harness opts in,
so default runs schedule zero extra events and every determinism digest
and perf-gate ``sim_events`` count is untouched.

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

    def __init__(self, env: Environment, interval_us: float = 1000.0, capacity: int = 4096):
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

    def add_delta_probe(self, name: str, fn: Callable[[], float], scale: float = 1.0) -> None:
        """Sample the increase of ``fn()`` since the last tick, scaled.

        ``scale=1/interval_us`` turns a busy-microsecond accumulator into
        a utilization fraction; ``scale=1.0`` turns an op counter into an
        ops-per-interval rate.
        """
        self.add_probe(name, _DeltaProbe(fn, scale))

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
