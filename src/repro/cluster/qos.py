"""Per-tenant QoS: latency budgets wired into :class:`SloTracker`.

A tenant is a named owner of one or more logical namespaces with a
latency budget.  The budget does double duty:

* **SLO accounting** — every completed request is recorded against a
  cluster-level :class:`~repro.obs.SloTracker` under the tenant's name
  (``slo.cluster.get.us{namespace=<tenant>}``), so breach counting and
  lazy flight-recorder dumps work exactly as they do on one device.
* **Admission control** — the scheduler estimates a request's queue
  wait before enqueueing it; if the estimate already exceeds the
  tenant's ``queue_budget_us`` the request is shed up front (see
  :mod:`repro.cluster.scheduler`), which is how a noisy tenant is kept
  from dragging every other tenant's tail through a shared shard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.errors import ClusterError
from repro.obs import MetricsRegistry, SloTracker, Tracer


@dataclass
class TenantPolicy:
    """One tenant's latency contract.

    ``latency_budget_us`` is the end-to-end SLO threshold recorded into
    the tracker.  ``queue_budget_us`` is the slice of that budget the
    request may burn *waiting in a shard queue*; it defaults to half the
    latency budget, leaving the other half for device service time.
    """

    name: str
    latency_budget_us: float
    queue_budget_us: float = 0.0
    namespaces: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.latency_budget_us <= 0:
            raise ClusterError(f"tenant {self.name!r} needs a positive budget")
        if self.queue_budget_us <= 0:
            self.queue_budget_us = self.latency_budget_us / 2.0


class QosManager:
    """Tenant registry plus the cluster-level SLO tracker."""

    #: Ops tracked per tenant (cluster-level command names).
    OPS = ("cluster.get", "cluster.put", "cluster.delete", "cluster.scan")

    def __init__(self, metrics: MetricsRegistry, tracer: Tracer):
        self.metrics = metrics
        self.slo = SloTracker(metrics, tracer)
        self._tenants: Dict[str, TenantPolicy] = {}

    def register(self, policy: TenantPolicy) -> TenantPolicy:
        if policy.name in self._tenants:
            raise ClusterError(f"tenant {policy.name!r} already registered")
        self._tenants[policy.name] = policy
        for op in self.OPS:
            self.slo.set_slo(op, policy.latency_budget_us, namespace=policy.name)
        return policy

    def tenant(self, name: str) -> TenantPolicy:
        try:
            return self._tenants[name]
        except KeyError:
            raise ClusterError(f"unknown tenant {name!r}") from None

    def tenants(self) -> List[TenantPolicy]:
        return [self._tenants[name] for name in sorted(self._tenants)]

    def attach_namespace(self, tenant: str, namespace: str) -> None:
        policy = self.tenant(tenant)
        if namespace not in policy.namespaces:
            policy.namespaces.append(namespace)

    def queue_budget(self, tenant: Optional[str]) -> Optional[float]:
        """Queue-wait budget for admission control; None = no tenant cap.

        Unregistered tenants get no cap (best-effort traffic is only
        bounded by queue capacity), so namespaces can exist before their
        tenant's contract does.
        """
        if tenant is None or tenant not in self._tenants:
            return None
        return self._tenants[tenant].queue_budget_us

    def record(
        self,
        op: str,
        tenant: Optional[str],
        start_us: float,
        end_us: float,
        trace_id: int = 0,
    ) -> None:
        """Account one finished cluster command to its tenant."""
        self.slo.record(op, tenant, start_us, end_us, trace_id=trace_id)
