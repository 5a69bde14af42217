"""Firmware execution contexts.

The controller has multiple embedded cores (Section IV-A).  Commands claim
an execution context for their CPU-bound phases; flash and bus waits happen
outside the context so cores are not pinned during I/O.
"""

from __future__ import annotations

from typing import Any, List

from repro.sim import Environment, Event, Resource
from repro.sim.core import NORMAL


class FirmwarePool:
    """A pool of embedded-CPU execution contexts."""

    def __init__(self, env: Environment, contexts: int, metrics=None):
        """``metrics`` is the stack root's optional
        :class:`~repro.obs.MetricsRegistry`; with one, context-wait
        latency and run-queue depth are recorded."""
        self.env = env
        self._pool = Resource(env, capacity=contexts, name="firmware")
        self.busy_us = 0.0
        self._wait_us_histogram = None
        self._queue_depth_gauge = None
        if metrics is not None:
            self._wait_us_histogram = metrics.histogram("kaml.firmware.wait_us")
            self._queue_depth_gauge = metrics.gauge("kaml.firmware.queue_depth")

    @property
    def contexts(self) -> int:
        return self._pool.capacity

    @property
    def queue_depth(self) -> int:
        """Commands waiting for a context right now (telemetry probe)."""
        return self._pool.queue_length

    def execute(self, cost_us: float, ctx=None, parent=None) -> Any:
        """Run ``cost_us`` of firmware work on some core.

        With a trace context, contended context acquisition is recorded
        as a ``firmware.wait`` span (no extra simulation events).
        """
        if cost_us <= 0:
            return
        queued = self.env.now
        request = self._pool.try_acquire() or (yield self._pool.request())
        if self.env.now > queued and ctx is not None:
            ctx.record_span("firmware.wait", start_us=queued, parent=parent)
        if self._wait_us_histogram is not None:
            self._wait_us_histogram.observe(self.env.now - queued)
            self._queue_depth_gauge.set(len(self._pool._waiting))
        try:
            started = self.env.now
            self.env.try_advance(cost_us) or (yield self.env.timeout(cost_us))
            self.busy_us += self.env.now - started
        finally:
            self._pool.release(request)

    def execute_wave(self, costs: List[float], ctx=None, parent=None) -> Event:
        """One :meth:`execute` per cost, each on a context of its own, without
        a process per cost: one bootstrap at ``now`` claims contexts in list
        order as those processes would, each cost's timeout releases its
        context, and the last release fires the event returned.  The caller
        yields that event at once, so when the bootstrap would be the very
        next dispatch (:meth:`Environment._would_run_next`) the claim runs
        here instead."""
        env, pool, wave, queued = self.env, self._pool, Event(self.env), self.env.now
        remaining = [sum(cost > 0 for cost in costs)]

        def run(request, cost: float) -> None:
            started = env.now
            if started > queued and ctx is not None:
                ctx.record_span("firmware.wait", start_us=queued, parent=parent)
            if self._wait_us_histogram is not None:
                self._wait_us_histogram.observe(started - queued)
                self._queue_depth_gauge.set(len(pool._waiting))

            def release(_timeout: Event) -> None:
                self.busy_us += env.now - started
                pool.release(request)
                remaining[0] -= 1
                if not remaining[0]:
                    env._finish(wave, None)  # this callback's last act

            env.timeout(cost).add_callback(release)

        def claim(_bootstrap: Event) -> None:
            for cost in costs:
                if cost > 0:  # an inline grant is processed: run() is called at once
                    granted = pool.try_acquire() or pool.request()
                    granted.add_callback(lambda request, cost=cost: run(request, cost))
            if not remaining[0]:
                env._finish(wave, None)

        if env._would_run_next(NORMAL):
            claim(None)
        else:
            env.timeout(0.0).add_callback(claim)
        return wave
