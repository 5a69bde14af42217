"""The KAML SSD firmware front-end (Sections III-A, IV).

Implements Table I — ``CreateNamespace`` / ``DeleteNamespace`` / ``Get`` /
``Put`` — plus a ``Delete`` extension (a one-tombstone ``Put``), namespace
retargeting, index swapping, snapshots, the host-side 2PC participant
surface, and crash recovery from the NVRAM staging buffers.  The commands
of each phase live in :mod:`repro.kaml.read`, :mod:`repro.kaml.put` and
:mod:`repro.kaml.recovery`; :class:`KamlSsd` binds them and owns the
state they share.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro import sanitize
from repro.config import ReproConfig
from repro.errors import PowerLossError
from repro.flash import FlashArray
from repro.kaml import put as put_phases, read, recovery
from repro.kaml.log import KamlLog
from repro.kaml.mapping import Mapping
from repro.kaml.namespace import Namespace, NamespaceAttributes, NamespaceError
from repro.kaml.put import KamlError, PutItem, StagedBatch
from repro.kaml.record import RECORD_HEADER_BYTES, TOMBSTONE
from repro.kaml.snapshot import Snapshot, SnapshotError, clone_index
from repro.obs import MetricsRegistry, OpJournal, SloTracker, TraceContext, Tracer, lazy_instrument
from repro.obs.trace import SpanEvent
from repro.sim import Environment
from repro.ssd import FirmwarePool, HostInterconnect, NvramBuffer, OnboardDram


class KamlSsd:
    """A key-addressable, multi-log SSD."""

    _reappends_counter = lazy_instrument("counter", "kaml.ssd.install_reappends")
    _append_failures_counter = lazy_instrument("counter", "kaml.ssd.put_append_failures")
    _prepares_counter = lazy_instrument("counter", "kaml.ssd.prepares")
    _prepare_commits_counter = lazy_instrument("counter", "kaml.ssd.prepare_commits")
    _prepare_aborts_counter = lazy_instrument("counter", "kaml.ssd.prepare_aborts")

    # The commands, bound from the modules that hold each phase.
    get = read.get
    get_record = read.get_record
    get_from_snapshot = read.get_from_snapshot
    scan = read.scan
    list_keys = read.list_keys
    put = put_phases.put
    power_loss = recovery.power_loss
    recover = recovery.recover

    def __init__(
        self,
        env: Environment,
        config: ReproConfig,
        metrics: Optional[MetricsRegistry] = None,
    ):
        config.geometry.validate()
        if config.kaml.num_logs > config.geometry.total_chips:
            raise KamlError(
                f"num_logs={config.kaml.num_logs} exceeds the "
                f"{config.geometry.total_chips} flash targets"
            )
        self.env = env
        self.config = config
        self.geometry = config.geometry
        self.costs = config.firmware
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        env.attach_metrics(self.metrics)
        #: Request-scoped tracing: one tracer + flight recorder per stack,
        #: and the per-namespace latency SLO tracker on top of both.
        self.tracer = Tracer(clock=lambda: env.now)
        self.slo = SloTracker(self.metrics, self.tracer)
        self.array = FlashArray(env, config.geometry, config.flash)
        self.array.attach_metrics(self.metrics)
        self.firmware = FirmwarePool(env, config.resources.firmware_contexts, metrics=self.metrics)
        self.nvram = NvramBuffer(env, config.resources.nvram_bytes)
        self.link = HostInterconnect(env, config.interconnect)
        self.dram = OnboardDram(config.resources.dram_bytes)
        #: Attached by :class:`repro.fault.PowerLossInjector`; the data
        #: path announces named crash points through :meth:`_crash_point`.
        self.fault: Optional[Any] = None
        #: Which copy of every key is live, and whether its block may be
        #: erased: the mapping tables and everything derived from them.
        self.mapping = Mapping(env, config, self.array, self.firmware, self.metrics)
        self.namespaces: Dict[int, Namespace] = self.mapping.namespaces
        self.snapshots: Dict[int, Snapshot] = self.mapping.snapshots
        # Logs occupy targets channel-major so that N <= channels logs land
        # on N distinct channels (the Figure 8 configuration).
        self.logs: List[KamlLog] = []
        for log_id in range(config.kaml.num_logs):
            channel = log_id % config.geometry.channels
            chip = log_id // config.geometry.channels
            self.logs.append(
                KamlLog(
                    env, config, self.array, log_id, channel, chip, hooks=self.mapping,
                    metrics=self.metrics, tracer=self.tracer,
                    crash_point=self._crash_point,
                )
            )
        self._next_namespace_id = 1
        self._log_subscribers: Dict[int, int] = {log.log_id: 0 for log in self.logs}
        self._next_snapshot_id = 1
        #: The largest value one page holds beside its record header.
        self._max_value_bytes = self.geometry.page_size - RECORD_HEADER_BYTES
        # Hot-path instruments, resolved once instead of per command
        # (registry lookups sort+hash the label set on every call).
        self._puts_counter = self.metrics.counter("kaml.ssd.puts")
        self._put_records_counter = self.metrics.counter("kaml.ssd.put_records")
        self._nvram_wait_us_histogram = self.metrics.histogram("kaml.put.nvram_wait_us")
        self._nvram_used_gauge = self.metrics.gauge("kaml.nvram.used_bytes")
        self._phase1_us_histogram = self.metrics.histogram("kaml.put.phase1_us")
        self._phase2_us_histogram = self.metrics.histogram("kaml.put.phase2_us")
        self._nvram_pin_us_histogram = self.metrics.histogram("kaml.put.nvram_pin_us")
        self._index_probes_histogram = self.metrics.histogram("kaml.get.index_probes")
        #: kamltrace op journal — None until a harness opts in via
        #: :meth:`enable_oplog` (pay-as-you-go: one ``is not None`` check
        #: per command, zero extra simulation events).
        self.oplog = None

    # ------------------------------------------------------------------
    # Namespace management (Table I)
    # ------------------------------------------------------------------

    def create_namespace(self, attributes: Optional[NamespaceAttributes] = None) -> Any:
        """``CreateNamespace(attributes)``: returns the new namespace id."""
        attributes = attributes or NamespaceAttributes()
        index = Namespace.build_index(attributes, self.config.kaml.index_bucket_slots)
        namespace_id = self._next_namespace_id
        self._next_namespace_id += 1
        namespace = Namespace(
            namespace_id,
            attributes,
            index,
            attributes.log_policy.select(
                [log.log_id for log in self.logs], dict(self._log_subscribers)
            ),
            self.metrics,
        )
        self.dram.allocate(namespace.dram_tag, index.memory_bytes)
        for log_id in namespace.log_ids:
            self._log_subscribers[log_id] += 1
        self.namespaces[namespace_id] = namespace
        yield from self.firmware.execute(self.costs.dispatch_us)
        return namespace_id

    def delete_namespace(self, namespace_id: int) -> Any:
        """``DeleteNamespace``: drop the index; records become GC food."""
        namespace = self._namespace(namespace_id)
        if any(s.namespace_id == namespace_id for s in self.snapshots.values()):
            raise KamlError(
                f"namespace {namespace_id} has live snapshots; delete them first"
            )
        self.mapping.drop_namespace(namespace_id)
        if self.dram.holds(namespace.dram_tag):
            self.dram.free(namespace.dram_tag)
        for log_id in namespace.log_ids:
            self._log_subscribers[log_id] -= 1
        yield from self.firmware.execute(self.costs.dispatch_us)

    def retarget_namespace(self, namespace_id: int, log_policy: Any) -> None:
        """Re-assign a namespace's logs at runtime (Section IV-B)."""
        namespace = self._namespace(namespace_id)
        new_ids = log_policy.select(
            [log.log_id for log in self.logs], dict(self._log_subscribers)
        )
        for log_id in namespace.log_ids:
            self._log_subscribers[log_id] -= 1
        for log_id in new_ids:
            self._log_subscribers[log_id] += 1
        namespace.retarget(new_ids)

    def close_namespace(self, namespace_id: int) -> Any:
        """Swap a namespace's mapping table out of DRAM (Section IV-C).

        The index object itself plays the role of the flash-resident copy;
        only the DRAM accounting and residency flag change.
        """
        namespace = self._namespace(namespace_id)
        if not namespace.resident:
            return
        epoch = self.mapping.epoch
        yield from self._swap_transfer(namespace)
        self._fence(epoch, "close_namespace")
        self.dram.free(namespace.dram_tag)
        namespace.resident = False

    def open_namespace(self, namespace_id: int) -> Any:
        """Swap a namespace's mapping table back into DRAM."""
        namespace = self._namespace(namespace_id)
        if namespace.resident:
            return
        epoch = self.mapping.epoch
        self.dram.allocate(namespace.dram_tag, namespace.index.memory_bytes)
        yield from self._swap_transfer(namespace)
        self._fence(epoch, "open_namespace")
        namespace.resident = True

    def _swap_transfer(self, namespace: Namespace) -> Any:
        """Time to stream the index between DRAM and flash."""
        pages = -(-namespace.index.memory_bytes // self.geometry.page_size)
        per_page = (
            self.config.flash.read_us
            + self.geometry.page_size / self.config.flash.bus_bytes_per_us
        )
        # Index pages stream across all channels in parallel.
        stream_us = per_page * pages / max(1, self.geometry.channels)
        self.env.try_advance(stream_us) or (yield self.env.timeout(stream_us))

    # ------------------------------------------------------------------
    # Data path (Table I; Get, Scan and Put are bound above)
    # ------------------------------------------------------------------

    def delete(self, namespace_id: int, key: int) -> Any:
        """Remove a key (extension beyond Table I): a one-record ``Put`` of a
        tombstone, so it pins, acks, appends, installs and replays as a Put
        does.  Returns True if the key was readable when the Delete was
        issued."""
        namespace = self._namespace(namespace_id)
        namespace.require_resident()
        staged, location, _probes = read.resolve(self.mapping, namespace, key, self.mapping.epoch)
        existed = (location is not None) if staged is None else (staged[1] is not TOMBSTONE)
        yield from self.put([PutItem(namespace_id, key, TOMBSTONE, 0)])
        return existed

    # ------------------------------------------------------------------
    # Snapshots (extension: the indirection service the intro motivates)
    # ------------------------------------------------------------------

    def snapshot_namespace(self, namespace_id: int) -> Any:
        """Freeze a consistent, read-only view; returns a snapshot id.

        Waits for the namespace's staged (acked but uninstalled) writes to
        reach flash so the snapshot references only physical locations,
        then clones the mapping table.  Records the snapshot references
        stay valid until :meth:`delete_snapshot` drops it.
        """
        namespace = self._namespace(namespace_id)
        namespace.require_resident()
        epoch = self.mapping.epoch
        # Drain this namespace's staging pipeline.
        settle_us = self.config.flash.program_us + self.config.kaml.flush_timeout_us
        for _ in range(64):
            if not read.staged_keys(self.mapping, namespace_id):
                break
            for log in self.logs:
                log.force_flush()
            self.env.try_advance(settle_us) or (yield self.env.timeout(settle_us))
            self._fence(epoch, "snapshot_namespace")
        else:
            raise SnapshotError("staging pipeline did not drain")
        index = clone_index(namespace.index)
        snapshot_id = self._next_snapshot_id
        self._next_snapshot_id += 1
        snapshot = Snapshot(snapshot_id, namespace_id, index)
        self.dram.allocate(snapshot.dram_tag, index.memory_bytes)
        self.mapping.add_snapshot(snapshot)
        # Cloning is a DRAM-to-DRAM copy inside the controller.
        yield from self.firmware.execute(
            self.costs.dispatch_us
            + index.memory_bytes / self.costs.nvram_copy_bytes_per_us
        )
        self._fence(epoch, "snapshot_namespace")
        return snapshot_id

    def delete_snapshot(self, snapshot_id: int) -> Any:
        """Drop a snapshot; its exclusive record versions become garbage."""
        snapshot = self._snapshot(snapshot_id)
        self.mapping.drop_snapshot(snapshot_id)
        self.dram.free(snapshot.dram_tag)
        yield from self.firmware.execute(self.costs.dispatch_us)

    def _snapshot(self, snapshot_id: int) -> Snapshot:
        try:
            return self.snapshots[snapshot_id]
        except KeyError:
            raise SnapshotError(f"unknown snapshot id: {snapshot_id}") from None

    # ------------------------------------------------------------------
    # Host-side 2PC participant surface (the repro.cluster serving tier)
    # ------------------------------------------------------------------

    def prepare_batch(
        self, items: List[PutItem], txn_id: int,
        ctx: Optional[TraceContext] = None, parent: Optional[SpanEvent] = None,
    ) -> Any:
        """Participant *prepare*: a Put's ``_pin`` alone; returns the handle.

        The batch is durable but unversioned and unreadable, in doubt until
        the coordinator drives :meth:`commit_prepared` or
        :meth:`abort_prepared`.  :meth:`recover` keeps the pin instead of
        replaying it, so the coordinator's intent journal alone decides.
        With ``ctx`` its spans join the coordinator's trace under ``parent``.
        """
        total_bytes = put_phases._validate_items(self, items)
        self._prepares_counter.inc()
        return (yield from put_phases._pin(
            self, StagedBatch("prepare", items, txn_id=txn_id), total_bytes, ctx, parent
        ))

    def commit_prepared(
        self, handle: int,
        ctx: Optional[TraceContext] = None, parent: Optional[SpanEvent] = None,
    ) -> Any:
        """Participant *commit*: a Put's ``_commit`` of the prepared batch.

        It probes as a Put does and stamps versions into the pinned payload,
        which from then on replays as an acknowledged ``Put``.  Returns the
        phases 2–3 process, or None if power was cut mid-commit (the pin,
        still ``"prepare"``, survives).  With ``ctx`` its spans join the
        coordinator's trace under ``parent``, but it is no host Put: no
        ``kaml.put`` root, oplog row or SLO sample."""
        batch = self._prepared(handle)
        self._prepare_commits_counter.inc()
        for item in batch.items:
            self._namespace(item.namespace_id).require_resident()
        return (yield from put_phases._commit(
            self, batch, handle, self.mapping.epoch, ctx, None, parent
        ))

    def abort_prepared(self, handle: int) -> Any:
        """Participant *abort*: drop a prepared batch without a trace."""
        self._prepared(handle)
        self._prepare_aborts_counter.inc()
        self.nvram.release(handle)
        self._nvram_used_gauge.set(self.nvram.used_bytes)
        yield from self.firmware.execute(self.costs.dispatch_us)

    def _prepared(self, handle: int) -> StagedBatch:
        """The prepared batch ``handle`` pins; any other handle is refused."""
        batch = self.nvram.payload(handle)
        if not isinstance(batch, StagedBatch) or batch.kind != "prepare":
            raise KamlError(f"NVRAM handle {handle} does not hold a prepared batch")
        return batch

    def prepared_batches(self) -> Dict[int, int]:
        """``{txn_id: nvram_handle}`` of every in-doubt prepared batch.

        The coordinator consults this after :meth:`recover` to resolve
        distributed transactions from its intent journal.
        """
        prepared: Dict[int, int] = {}
        for handle, payload in self.nvram.live_payloads():
            if (
                isinstance(payload, StagedBatch)
                and payload.kind == "prepare"
                and payload.txn_id is not None
            ):
                prepared[payload.txn_id] = handle
        return prepared

    def _fence(self, epoch: int, command: str) -> None:
        """End a command that waited across a power cut (a ghost) before
        it touches the recovered device."""
        if self.mapping.epoch != epoch:
            raise PowerLossError(f"power lost under {command}")

    def _crash_point(self, name: str) -> None:
        """Announce a named crash point to an attached fault injector."""
        fault = self.fault
        if fault is not None:
            fault.reached(name)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _namespace(self, namespace_id: int) -> Namespace:
        try:
            return self.namespaces[namespace_id]
        except KeyError:
            raise NamespaceError(f"unknown namespace id: {namespace_id}") from None

    @property
    def epoch(self) -> int:
        """The power epoch (``Mapping.epoch``): bumped by every power cut, so a
        command that captured an older one is a ghost.  Read-only, for the
        cluster's ``Device`` protocol and the fault harness."""
        return self.mapping.epoch

    @property
    def staged_records(self) -> int:
        """Acknowledged records whose mapping install has not landed yet."""
        return self.mapping.staged_count

    def drain(self) -> Any:
        """Force all open pages to flash and wait for them (test helper)."""
        for log in self.logs:
            log.force_flush()
        settle_us = self.config.flash.program_us * 4 + self.config.kaml.flush_timeout_us
        self.env.try_advance(settle_us) or (yield self.env.timeout(settle_us))

    def close(self) -> None:
        """End-of-life check point for a drained device.

        With sanitizers armed (``KAML_SANITIZE=1``) this verifies that no
        NVRAM reservation and no block read-pin outlived the workload —
        the accounting leaks that silently eat capacity in long runs.
        Call after :meth:`drain` has completed.
        """
        if sanitize.enabled():
            sanitize.check_close(self)

    def enable_oplog(
        self, path: Optional[str] = None, capacity: int = 1 << 20
    ) -> Any:
        """Start the kamltrace op journal (``repro.obs.oplog``).

        Opt-in only: while ``oplog`` is None every choke point pays one
        ``is not None`` check and schedules zero extra simulation events,
        so pinned digests and ``sim_events`` counts are untouched.  With
        ``path=None`` rows accumulate in memory (``journal.rows``); with a
        path they stream as JSONL (gzipped when the name ends in
        ``.gz``).  The caller owns ``journal.close()`` for streamed
        captures.
        """
        journal = OpJournal(path=path, capacity=capacity)
        self.oplog = journal
        return journal

    def utilization_report(self) -> Dict[str, Any]:
        """Operational snapshot of the device (monitoring/debug surface)."""
        erase_low, erase_high = self.array.erase_count_spread()
        return {
            "namespaces": len(self.namespaces),
            "snapshots": len(self.snapshots),
            "dram_used_bytes": self.dram.used_bytes,
            "dram_free_bytes": self.dram.free_bytes,
            "nvram_used_bytes": self.nvram.used_bytes,
            "staged_records": self.staged_records,
            "valid_bytes": self.mapping.valid_bytes_total(),
            "free_blocks": sum(log.free_blocks for log in self.logs),
            "retired_blocks": int(self.metrics.total("kaml.log.retired_blocks")),
            "gc_erased_blocks": int(self.metrics.total("kaml.log.gc.erased_blocks")),
            "flash_programs": self.array.total_programs(),
            "flash_reads": self.array.total_reads(),
            **self.array.suspension_totals(),
            "erase_count_min": erase_low,
            "erase_count_max": erase_high,
        }
