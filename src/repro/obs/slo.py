"""Per-namespace latency SLO tracking with flight-recorder breach dumps.

An :class:`SloTracker` sits next to a stack's registry and tracer.  Each
host-visible command latency is fed through :meth:`SloTracker.record`,
which observes it into an ``slo.<op>.us{namespace=...}`` histogram (the
shared interpolated-percentile code then yields p50/p99/p999) and checks
it against the configured :class:`SloPolicy` thresholds.  A breach bumps
the ``slo.breaches`` counter and captures a :class:`SloBreach` marker.

Breach dumps are *lazy*: at breach time only the trace id and window
bounds are pinned, because the causally-linked spans of the slow command
(its NVRAM pin, background phase 2, log appends) may not have completed
yet.  :meth:`SloTracker.breach_dump` materialises the dump later —
typically at end of run — by pulling the trace plus the surrounding
window out of the flight recorder.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Union

#: Namespace label on a policy or breach: a device-local namespace id, a
#: cluster-level tenant/namespace name, or None for "every namespace".
NamespaceLabel = Optional[Union[int, str]]

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer


def _label(namespace: NamespaceLabel) -> str:
    """Registry label values must sort homogeneously: namespaces are
    stringified, and a namespace-less op (e.g. a read-only commit) files
    under the aggregate "all" series."""
    return "all" if namespace is None else str(namespace)


class SloPolicy(NamedTuple):
    """A latency objective: ``op`` commands must finish in ``threshold_us``.

    ``namespace=None`` applies the policy to every namespace.
    """

    op: str
    threshold_us: float
    namespace: NamespaceLabel = None

    def matches(self, op: str, namespace: NamespaceLabel) -> bool:
        if op != self.op:
            return False
        return self.namespace is None or self.namespace == namespace


class SloBreach(NamedTuple):
    """One recorded violation (dump is resolved lazily from the recorder)."""

    op: str
    namespace: NamespaceLabel
    latency_us: float
    threshold_us: float
    start_us: float
    end_us: float
    trace_id: int
    #: kamltrace op-journal id of the breaching command (0 when capture
    #: was off) — joins the breach back to the captured op for replay.
    op_id: int = 0


class SloTracker:
    """Latency-objective bookkeeping for one simulated stack."""

    #: Percentiles reported by :meth:`latency_summary`.
    FRACTIONS = (("p50", 0.50), ("p99", 0.99), ("p999", 0.999))

    def __init__(
        self,
        registry: MetricsRegistry,
        tracer: Tracer,
        policies: Optional[List[SloPolicy]] = None,
        max_breaches: int = 64,
        window_slack_us: float = 2_000.0,
    ):
        self.registry = registry
        #: Dumps read ``tracer.recorder`` when they run, so a ring swapped
        #: in after construction (profilers enlarge it) is the one read.
        self.tracer = tracer
        self.policies: List[SloPolicy] = list(policies or [])
        self.max_breaches = max_breaches
        #: Extra sim-time kept on each side of a breach window so the
        #: dump shows what the device was doing around the slow command.
        self.window_slack_us = window_slack_us
        self.breaches: List[SloBreach] = []
        #: Breaches beyond ``max_breaches`` are counted but not retained.
        self.overflowed_breaches = 0
        # (op, namespace) -> histogram, resolved once instead of per command.
        self._histograms: Dict[Any, Any] = {}

    # -- configuration ---------------------------------------------------

    def set_slo(
        self, op: str, threshold_us: float, namespace: NamespaceLabel = None
    ) -> SloPolicy:
        """Install (or replace) the policy for ``(op, namespace)``."""
        policy = SloPolicy(op, threshold_us, namespace)
        self.policies = [
            p for p in self.policies
            if not (p.op == op and p.namespace == namespace)
        ] + [policy]
        return policy

    # -- the hot path ----------------------------------------------------

    def record(
        self,
        op: str,
        namespace: NamespaceLabel,
        start_us: float,
        end_us: float,
        trace_id: int = 0,
        op_id: int = 0,
    ) -> Optional[SloBreach]:
        """Observe one command latency; returns the breach if any."""
        latency_us = end_us - start_us
        histogram = self._histograms.get((op, namespace))
        if histogram is None:
            histogram = self.registry.histogram(f"slo.{op}.us", namespace=_label(namespace))
            self._histograms[(op, namespace)] = histogram
        histogram.observe(latency_us)
        for policy in self.policies:
            if not policy.matches(op, namespace):
                continue
            if latency_us <= policy.threshold_us:
                continue
            self.registry.counter(
                "slo.breaches", op=op, namespace=_label(namespace)
            ).inc()
            breach = SloBreach(
                op=op,
                namespace=namespace,
                latency_us=latency_us,
                threshold_us=policy.threshold_us,
                start_us=start_us,
                end_us=end_us,
                trace_id=trace_id,
                op_id=op_id,
            )
            if len(self.breaches) < self.max_breaches:
                self.breaches.append(breach)
            else:
                self.overflowed_breaches += 1
            return breach
        return None

    # -- reporting -------------------------------------------------------

    def latency_summary(self) -> Dict[str, Dict[str, float]]:
        """``{"slo.put.us{namespace=1}": {count, mean, p50, p99, p999}}``."""
        summary: Dict[str, Dict[str, float]] = {}
        for instrument in self.registry.instruments(prefix="slo."):
            if instrument.kind != "histogram" or not instrument.name.endswith(".us"):
                continue
            percentiles = {
                label: instrument.percentile(fraction) for label, fraction in self.FRACTIONS
            }
            row = {"count": float(instrument.count), "mean": instrument.mean, **percentiles}
            summary[instrument.key_string()] = row
        return summary

    def breach_dump(self, breach: SloBreach) -> Dict[str, Any]:
        """Materialise one breach: its trace plus the surrounding window.

        The returned events are whatever the flight recorder still
        retains; a breach resolved long after the fact may have lost its
        window to ring eviction (``capacity`` bounds memory, not time).
        """
        recorder = self.tracer.recorder
        window = recorder.window(
            breach.start_us - self.window_slack_us,
            breach.end_us + self.window_slack_us,
        )
        trace = recorder.trace(breach.trace_id) if breach.trace_id else []
        seen = {id(event) for event in window}
        combined = window + [e for e in trace if id(e) not in seen]
        combined.sort(key=lambda e: (e.start_us, e.span_id))
        return {
            "breach": breach._asdict(),
            "events": [event.export() for event in combined],
        }

    def dump_breaches(self) -> List[Dict[str, Any]]:
        return [self.breach_dump(breach) for breach in self.breaches]
