"""Firmware execution contexts.

The controller has multiple embedded cores (Section IV-A).  Commands claim
an execution context for their CPU-bound phases; flash and bus waits happen
outside the context so cores are not pinned during I/O.
"""

from __future__ import annotations

from typing import Any, List

from repro.sim import Environment, Event, Timeline
from repro.sim.core import NORMAL


class FirmwarePool:
    """A pool of embedded-CPU execution contexts.

    A command holds one context for its known CPU cost, first come, first
    served: the pool is a :class:`~repro.sim.Timeline`, so a command is
    booked onto the earliest-free context when it asks and waits for the
    end of that hold.
    """

    def __init__(self, env: Environment, contexts: int, metrics=None):
        """``metrics`` is the stack root's optional
        :class:`~repro.obs.MetricsRegistry`; with one, context-wait
        latency is recorded."""
        self.env = env
        self._contexts = Timeline(env, capacity=contexts, name="firmware")
        #: CPU time booked so far, counted when each hold is booked.
        self.busy_us = 0.0
        self._wait_us_histogram = None
        if metrics is not None:
            self._wait_us_histogram = metrics.histogram("kaml.firmware.wait_us")

    @property
    def contexts(self) -> int:
        return self._contexts.capacity

    def _book(self, cost_us: float, queued: float, ctx, parent) -> float:
        """Book ``cost_us`` on the earliest-free context for a command that
        asked at ``queued``; return the end of the hold."""
        start = self._contexts.book(cost_us)
        self.busy_us += cost_us
        if start > queued and ctx is not None:
            ctx.record_span("firmware.wait", start_us=queued, end_us=start, parent=parent)
        if self._wait_us_histogram is not None:
            self._wait_us_histogram.observe(start - queued)
        return start + cost_us

    def execute(self, cost_us: float, ctx=None, parent=None) -> Any:
        """Run ``cost_us`` of firmware work on some core.

        With a trace context, contended context acquisition is recorded
        as a ``firmware.wait`` span (no extra simulation events).  The
        booking is :meth:`_book` inlined: one call fewer per command.
        """
        if cost_us <= 0:
            return
        env = self.env
        queued = env.now
        start = self._contexts.book(cost_us)
        self.busy_us += cost_us
        if start > queued and ctx is not None:
            ctx.record_span("firmware.wait", start_us=queued, end_us=start, parent=parent)
        if self._wait_us_histogram is not None:
            self._wait_us_histogram.observe(start - queued)
        end = start + cost_us
        env.try_advance_to(end) or (yield env.timeout_at(end))

    def execute_wave(self, costs: List[float], ctx=None, parent=None) -> Event:
        """One :meth:`execute` per cost, each on a context of its own, without
        a process per cost: one bootstrap at ``now`` books contexts in list
        order as those processes would, and one timeout at the last hold's
        end fires the event returned.  The caller yields that event at
        once, so when the bootstrap would be the very next dispatch
        (:meth:`Environment._would_run_next`) the booking runs here
        instead."""
        env, wave, queued = self.env, Event(self.env), self.env.now

        def finish(_end: Event) -> None:
            env._finish(wave, None)  # this callback's last act

        def claim(_bootstrap: Event) -> None:
            ends = [self._book(cost, queued, ctx, parent) for cost in costs if cost > 0]
            if ends:
                env.timeout_at(max(ends)).add_callback(finish)
            else:
                env._finish(wave, None)

        if env._would_run_next(NORMAL):
            claim(None)
        else:
            env.timeout(0.0).add_callback(claim)
        return wave
