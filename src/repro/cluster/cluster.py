"""The cluster facade: N devices behind one serving tier.

:class:`KamlCluster` owns N :class:`Device` backends sharing one
simulated clock, a :class:`PlacementMap` of logical (string-named)
namespaces, a :class:`ShardScheduler` per shard, a :class:`QosManager`
for tenant budgets, and a :class:`TwoPhaseCoordinator` + host
:class:`IntentJournal` for cross-shard atomic Puts.

The data-path methods are simulation generators like the device's own:
``yield from cluster.get(...)`` inside a sim process, or wrap with
``env.process``.  Each request routes (pure, zero sim events), passes
admission control, waits in the shard queue, runs on the device, and is
recorded against its tenant's SLO.  A multi-record Put whose keys land
on one shard is an ordinary device Put; one that straddles shards runs
the 2PC protocol in :mod:`repro.cluster.twopc`.

Fault lifecycle mirrors one device: :meth:`power_loss` cuts every
device *and* the coordinator at one instant (the host intent journal
survives), :meth:`recover` re-drives device recovery, replays the
journal over in-doubt prepares, and respawns the worker pools.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.device import Device
from repro.cluster.errors import ClusterError
from repro.cluster.placement import LogicalNamespace, PlacementMap
from repro.cluster.qos import QosManager, TenantPolicy
from repro.cluster.scheduler import ShardScheduler
from repro.cluster.twopc import IntentJournal, TwoPhaseCoordinator, recover_transactions
from repro.errors import PowerLossError
from repro.kaml.namespace import NamespaceAttributes
from repro.kaml.put import PutItem
from repro.kaml.ssd import KamlSsd
from repro.obs import MetricsRegistry, Tracer
from repro.sim import Environment, Gate


@dataclass(frozen=True)
class ClusterConfig:
    """Serving-tier knobs (device geometry lives in ``ReproConfig``)."""

    num_shards: int = 4
    queue_limit: int = 64
    workers_per_shard: int = 4
    journal_write_us: float = 2.0


class KamlCluster:
    """Sharded serving tier over N simulated KAML devices."""

    def __init__(
        self,
        env: Environment,
        devices: List[Device],
        config: Optional[ClusterConfig] = None,
    ):
        if not devices:
            raise ClusterError("a cluster needs at least one device")
        self.env = env
        self.config = config if config is not None else ClusterConfig(
            num_shards=len(devices)
        )
        if self.config.num_shards != len(devices):
            raise ClusterError(
                f"config says {self.config.num_shards} shards but "
                f"{len(devices)} devices were given"
            )
        self.shards: Dict[int, Device] = dict(enumerate(devices))
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(clock=lambda: env.now)
        self.qos = QosManager(self.metrics, self.tracer)
        self.placement = PlacementMap(len(devices))
        self.journal = IntentJournal(env, write_us=self.config.journal_write_us)
        self.coordinator = TwoPhaseCoordinator(
            env, self.journal, self.metrics, self._crash_point
        )
        self.schedulers: Dict[int, ShardScheduler] = {
            shard_id: ShardScheduler(
                env,
                shard_id,
                self.metrics,
                queue_limit=self.config.queue_limit,
                workers=self.config.workers_per_shard,
            )
            for shard_id in self.shards
        }
        #: Power-loss fence, like the device's: host-side processes carry
        #: the epoch they started under and die when it moves.
        self.epoch = 0
        #: Slot for a :class:`repro.fault.PowerLossInjector`.
        self.fault: Optional[Any] = None
        self._migration_gate = Gate(env, name="cluster.migration")
        self._drain_gate = Gate(env, name="cluster.drain")
        self._rebalance_counter = self.metrics.counter("cluster.rebalances")
        self._rebalance_us_histogram = self.metrics.histogram("cluster.rebalance.us")
        self._recovery_counter = self.metrics.counter("cluster.recoveries")
        for scheduler in self.schedulers.values():
            scheduler.start(self.epoch)

    @classmethod
    def build(
        cls,
        env: Environment,
        device_config: Any,
        config: Optional[ClusterConfig] = None,
    ) -> "KamlCluster":
        """Construct a cluster of identical :class:`KamlSsd` devices."""
        cluster_config = config if config is not None else ClusterConfig()
        devices: List[Device] = [
            KamlSsd(env, device_config)
            for _shard in range(cluster_config.num_shards)
        ]
        return cls(env, devices, cluster_config)

    # -- tenants and namespaces ----------------------------------------

    def register_tenant(self, policy: TenantPolicy) -> TenantPolicy:
        return self.qos.register(policy)

    def create_namespace(
        self,
        name: str,
        tenant: str,
        mode: str = "hashed",
        attributes: Optional[NamespaceAttributes] = None,
        home_shard: Optional[int] = None,
    ) -> Any:
        """Create a logical namespace; returns its placement record.

        ``mode="hashed"`` spreads keys across every shard;
        ``mode="homed"`` puts the whole namespace on one shard
        (``home_shard`` or round-robin) and makes it migratable.
        """
        if mode == "homed":
            shard = home_shard if home_shard is not None else self.placement.pick_home()
            placed = [shard]
        elif mode == "hashed":
            if home_shard is not None:
                raise ClusterError("hashed namespaces span every shard")
            placed = sorted(self.shards)
        else:
            raise ClusterError(f"unknown placement mode {mode!r}")
        namespace = LogicalNamespace(
            name=name, tenant=tenant, mode=mode, placement=placed,
            attributes=attributes,
        )
        self.placement.add(namespace)
        try:
            for shard_id in placed:
                local = yield from self.shards[shard_id].create_namespace(attributes)
                namespace.device_ns[shard_id] = local
        except Exception:
            self.placement.remove(name)
            raise
        self.qos.attach_namespace(tenant, name)
        return namespace

    # -- data path ------------------------------------------------------

    def get(self, namespace: str, key: int) -> Any:
        ns = self.placement.get(namespace)
        yield from self._wait_migration(ns)
        shard_id, local_ns = ns.route(key)
        device = self.shards[shard_id]
        result = yield from self._submit(
            ns, shard_id, "cluster.get",
            lambda: device.get(local_ns, key),
        )
        return result

    def put(self, namespace: str, items: List[Tuple[int, Any, int]]) -> Any:
        """Atomic multi-record Put of ``[(key, value, size), ...]``.

        Single-shard batches take the device's native atomic Put through
        the shard queue; batches whose keys straddle shards run the
        host-side 2PC (control-plane path: it bypasses the per-shard
        queues, but still counts against the tenant's SLO).
        """
        ns = self.placement.get(namespace)
        if not items:
            raise ClusterError("put requires at least one item")
        yield from self._wait_migration(ns)
        by_shard: Dict[int, List[PutItem]] = {}
        for key, value, size in items:
            shard_id, local_ns = ns.route(key)
            by_shard.setdefault(shard_id, []).append(
                PutItem(local_ns, key, value, size)
            )
        if len(by_shard) == 1:
            shard_id, batch = next(iter(by_shard.items()))
            device = self.shards[shard_id]
            result = yield from self._submit(
                ns, shard_id, "cluster.put",
                lambda: device.put(batch),
            )
            return result
        result = yield from self._transaction(ns, by_shard)
        return result

    def delete(self, namespace: str, key: int) -> Any:
        ns = self.placement.get(namespace)
        yield from self._wait_migration(ns)
        shard_id, local_ns = ns.route(key)
        device = self.shards[shard_id]
        result = yield from self._submit(
            ns, shard_id, "cluster.delete",
            lambda: device.delete(local_ns, key),
        )
        return result

    def scan(self, namespace: str, low: int, high: int) -> Any:
        """Scatter-gather range scan, merged in key order."""
        ns = self.placement.get(namespace)
        yield from self._wait_migration(ns)
        shards = sorted(set(ns.placement))
        if len(shards) == 1:
            shard_id = shards[0]
            local_ns = ns.local_ns(shard_id)
            device = self.shards[shard_id]
            result = yield from self._submit(
                ns, shard_id, "cluster.scan",
                lambda: device.scan(local_ns, low, high),
            )
            return result
        start_us = self.env.now
        tracer = self.tracer
        ctx = tracer.request(
            "cluster.scan", namespace=ns.name, fanout=len(shards)
        ) if tracer.enabled else None
        trace_id = ctx.trace_id if ctx is not None else 0
        try:
            completions = []
            for shard_id in shards:
                local_ns = ns.local_ns(shard_id)
                completions.append(
                    self._admit(
                        ns, shard_id,
                        (lambda d, n: lambda: d.scan(n, low, high))(
                            self.shards[shard_id], local_ns
                        ),
                        ctx,
                    )
                )
            partials = yield self.env.all_of(completions)
        finally:
            if ctx is not None:
                ctx.close()
        self.qos.record("cluster.scan", ns.tenant, start_us, self.env.now,
                        trace_id=trace_id)
        merged: List[Tuple[int, Any]] = []
        for partial in partials:
            merged.extend(partial)
        merged.sort(key=lambda pair: pair[0])
        return merged

    # -- request plumbing ----------------------------------------------

    def _admit(
        self, ns: LogicalNamespace, shard_id: int, factory: Any, ctx: Any
    ) -> Any:
        """Admission-control one request; returns the completion event."""
        budget = self.qos.queue_budget(ns.tenant)
        try:
            completion = self.schedulers[shard_id].submit(
                factory, tenant=ns.tenant, queue_budget_us=budget
            )
        except Exception:
            if ctx is not None:
                ctx.event("cluster.shed", shard=shard_id, tenant=ns.tenant)
            raise
        if ctx is not None:
            ctx.event("cluster.route", shard=shard_id, namespace=ns.name)
        return completion

    def _wait_migration(self, ns: LogicalNamespace) -> Any:
        """Park until ``ns`` stops migrating (no yield when it is not).

        Callers route *after* this returns, and nothing between it and
        the admission bookkeeping yields, so a request either increments
        ``inflight`` before a migration starts quiescing or parks here —
        never neither.
        """
        epoch = self.epoch
        while ns.migrating:
            yield self._migration_gate.wait()
            if self.epoch != epoch:
                raise PowerLossError("cluster power lost during migration wait")

    def _submit(
        self, ns: LogicalNamespace, shard_id: int, op: str, factory: Any
    ) -> Any:
        """Admit → queue → run one single-shard request."""
        epoch = self.epoch
        start_us = self.env.now
        tracer = self.tracer
        ctx = tracer.request(
            op, namespace=ns.name, shard=shard_id
        ) if tracer.enabled else None
        try:
            completion = self._admit(ns, shard_id, factory, ctx)
        except Exception:
            if ctx is not None:
                ctx.close()
            raise
        ns.inflight += 1
        span = ctx.begin("cluster.queue", shard=shard_id) if ctx is not None else None
        try:
            value = yield completion
        except Exception:
            if ctx is not None:
                ctx.close()
            if self.epoch == epoch:
                ns.inflight -= 1
                self._drain_gate.fire()
            raise
        trace_id = 0
        if ctx is not None:
            trace_id = ctx.trace_id
            ctx.finish(span)
            ctx.close()
        ns.inflight -= 1
        self._drain_gate.fire()
        self.qos.record(op, ns.tenant, start_us, self.env.now, trace_id=trace_id)
        return value

    def _transaction(
        self, ns: LogicalNamespace, by_shard: Dict[int, List[PutItem]]
    ) -> Any:
        start_us = self.env.now
        tracer = self.tracer
        ctx = tracer.request(
            "cluster.2pc", namespace=ns.name, shards=len(by_shard)
        ) if tracer.enabled else None
        trace_id = ctx.trace_id if ctx is not None else 0
        participants = [
            (shard_id, self.shards[shard_id], batch)
            for shard_id, batch in sorted(by_shard.items())
        ]
        ns.inflight += 1
        epoch = self.epoch
        try:
            background = yield from self.coordinator.run(participants, ctx=ctx)
        finally:
            if ctx is not None:
                ctx.close()
            if self.epoch == epoch:
                ns.inflight -= 1
                self._drain_gate.fire()
        self.qos.record(
            "cluster.put", ns.tenant, start_us, self.env.now, trace_id=trace_id
        )
        return background

    # -- rebalancing ----------------------------------------------------

    def rebalance(self, namespace: str, target_shard: int) -> Any:
        """Migrate a homed namespace to ``target_shard``.

        Quiesce-copy-switch: park new requests on the migration gate,
        wait out in-flight ones, copy every readable key through
        ``get_record``/``put``, then flip placement and drop the source
        replica.  Returns the number of records moved.
        """
        ns = self.placement.get(namespace)
        if ns.mode != "homed":
            raise ClusterError(f"namespace {namespace!r} is hashed; it cannot move")
        if not 0 <= target_shard < len(self.shards):
            raise ClusterError(f"no shard {target_shard}")
        source_shard = ns.placement[0]
        if source_shard == target_shard:
            return 0
        if ns.migrating:
            raise ClusterError(f"namespace {namespace!r} is already migrating")
        start_us = self.env.now
        epoch = self.epoch
        ctx = self.tracer.request(
            "cluster.rebalance", namespace=ns.name,
            source=source_shard, target=target_shard,
        )
        ns.migrating = True
        try:
            # Quiesce: in-flight requests finish, new ones park.
            while ns.inflight > 0:
                yield self._drain_gate.wait()
                if self.epoch != epoch:
                    raise PowerLossError("cluster power lost during quiesce")
            source = self.shards[source_shard]
            target = self.shards[target_shard]
            source_ns = ns.local_ns(source_shard)
            target_ns = yield from target.create_namespace(ns.attributes)
            keys = yield from source.list_keys(source_ns)
            moved = 0
            for key in keys:
                record = yield from source.get_record(source_ns, key)
                if record is None:
                    continue  # deleted while listed; nothing to move
                value, size = record
                yield from target.put([PutItem(target_ns, key, value, size)])
                moved += 1
            yield from source.delete_namespace(source_ns)
            ns.placement = [target_shard]
            ns.device_ns = {target_shard: target_ns}
        finally:
            if self.epoch == epoch:
                ns.migrating = False
                self._migration_gate.fire()
            if ctx is not None:
                ctx.close()
        self._rebalance_counter.inc()
        self._rebalance_us_histogram.observe(self.env.now - start_us)
        return moved

    # -- fault lifecycle -------------------------------------------------

    def _crash_point(self, name: str) -> None:
        fault = self.fault
        if fault is not None:
            fault.reached(name)

    def power_loss(self) -> None:
        """Cut power to the whole rack at this instant.

        Every device loses its DRAM (NVRAM pins survive, per device
        semantics), every queued or in-flight request fails with
        :class:`PowerLossError`, and host-side processes of the old
        epoch die as ghosts.  The intent journal is host-durable and
        survives.
        """
        self.epoch += 1
        for shard_id in sorted(self.shards):
            self.shards[shard_id].power_loss()
        for shard_id in sorted(self.schedulers):
            self.schedulers[shard_id].power_loss(self.epoch)
        for name in self.placement.names():
            ns = self.placement.get(name)
            ns.migrating = False
            ns.inflight = 0
        # Fresh gates: parked pre-crash waiters must never be woken into
        # the recovered epoch.
        self._migration_gate = Gate(self.env, name="cluster.migration")
        self._drain_gate = Gate(self.env, name="cluster.drain")

    def recover(self) -> Any:
        """Bring every shard back, then settle in-doubt transactions."""
        self._recovery_counter.inc()
        ctx = self.tracer.request("cluster.recover", shards=len(self.shards))
        try:
            for shard_id in sorted(self.shards):
                yield from self.shards[shard_id].recover()
            stats, background = yield from recover_transactions(self.journal, self.shards)
            if ctx is not None:
                ctx.event(
                    "cluster.2pc.decision",
                    committed=stats["committed"], aborted=stats["aborted"],
                )
        finally:
            if ctx is not None:
                ctx.close()
        for shard_id in sorted(self.schedulers):
            self.schedulers[shard_id].start(self.epoch)
        return {
            "committed": stats["committed"],
            "aborted": stats["aborted"],
            "background": background,
        }

    def drain(self) -> Any:
        """Flush every device (test/bench helper)."""
        for shard_id in sorted(self.shards):
            yield from self.shards[shard_id].drain()

    def close(self) -> None:
        for shard_id in sorted(self.shards):
            self.shards[shard_id].close()
