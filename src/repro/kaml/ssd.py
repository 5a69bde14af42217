"""The KAML SSD firmware front-end (Sections III-A, IV).

Implements Table I — ``CreateNamespace`` / ``DeleteNamespace`` / ``Get`` /
``Put`` — plus a ``Delete`` extension (a one-tombstone ``Put``), namespace
retargeting, index swapping, and crash recovery from the NVRAM staging
buffers.

``Put`` follows the paper's two-phase protocol (Section IV-D):

1. The batch is transferred over PCIe and pinned in battery-backed NVRAM
   (``_pin``); the firmware probes/reserves each key's index entry and
   assigns commit versions (``_commit``).  The command is now *logically
   committed* and the host is acknowledged.  A 2PC participant's prepare
   is the first half alone, and its commit the second.
2. Records are appended to logs (one flash program per packed page).
3. The firmware installs the new physical addresses in the mapping
   tables, adjusts valid-byte accounting, and frees NVRAM.

Phases 2–3 run in a background process; the host-visible latency is
phase 1 — which is why small ``Put`` latency beats block ``write``
(Figure 6b) even though flash programs are slow.

Where the paper says the firmware "locks" index entries across all three
phases, this implementation orders concurrent same-key Puts by a version
assigned at phase 1 and serves acknowledged-but-uninstalled values from
the NVRAM staging area.  The observable semantics are identical (atomic,
ordered, read-after-ack), but hot keys are not rate-limited to one
update per flash-program, which the paper's sustained YCSB-zipfian
throughput implies their firmware avoids too.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro import sanitize
from repro.config import ReproConfig
from repro.errors import InvariantError, ReproError
from repro.flash import FlashArray
from repro.kaml.log import KamlLog, LogSpaceError
from repro.kaml.mapping import Mapping
from repro.kaml.namespace import Namespace, NamespaceAttributes, NamespaceError
from repro.kaml.record import (
    RECORD_HEADER_BYTES,
    TOMBSTONE,
    Record,
    RecordLocation,
    RecordTooLargeError,
    chunks_for,
)
from repro.kaml.snapshot import Snapshot, SnapshotError, clone_index
from repro.obs import MetricsRegistry, OpJournal, SloTracker, TraceContext, Tracer, lazy_instrument
from repro.sim import Environment, Event
from repro.ssd import FirmwarePool, HostInterconnect, NvramBuffer, NvramExhausted, OnboardDram


class KamlError(ReproError):
    """Command-level failure on the KAML SSD."""


class PutItem(NamedTuple):
    """One element of a (possibly multi-record) atomic ``Put`` (Table I)."""

    namespace_id: int
    key: int
    value: Any
    size: int


class StagedBatch:
    """Durable NVRAM payload of one command, pinned by :meth:`KamlSsd._pin`
    at ``pinned_at``.

    ``kind`` is ``"put"`` or ``"prepare"``.  ``versions`` holds the commit
    versions :meth:`KamlSsd._commit` assigned, stamped into the payload
    after the pin (mutating this object models writing into the
    already-reserved NVRAM region); it stays None when a crash caught the
    batch between the pin and the commit — such a batch was never
    acknowledged and replays all-or-nothing with fresh versions.

    A ``"prepare"`` batch is a host-side 2PC participant's
    (``repro.cluster``): pinned but not committed, so durable but
    *undecided*.  It is never staged for reads, and :meth:`KamlSsd.recover`
    keeps it pinned instead of replaying it — only the coordinator's intent
    journal can commit it (through the same ``_commit``, which flips its
    kind to ``"put"``) or abort it.  ``txn_id`` names its transaction.
    """

    __slots__ = ("kind", "items", "versions", "txn_id", "pinned_at")

    def __init__(
        self,
        kind: str,
        items: List[PutItem],
        versions: Optional[List[int]] = None,
        txn_id: Optional[int] = None,
    ):
        self.kind = kind
        self.items = list(items)
        self.versions = list(versions) if versions is not None else None
        self.txn_id = txn_id
        self.pinned_at = 0.0


class KamlSsd:
    """A key-addressable, multi-log SSD."""

    _reappends_counter = lazy_instrument("counter", "kaml.ssd.install_reappends")
    _append_failures_counter = lazy_instrument("counter", "kaml.ssd.put_append_failures")
    _prepares_counter = lazy_instrument("counter", "kaml.ssd.prepares")
    _prepare_commits_counter = lazy_instrument("counter", "kaml.ssd.prepare_commits")
    _prepare_aborts_counter = lazy_instrument("counter", "kaml.ssd.prepare_aborts")

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
        #: Bumped by :meth:`power_loss`; pre-crash processes ("ghosts")
        #: compare against it and die without mutating recovered state.
        self.epoch = 0
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
        yield from self._swap_transfer(namespace)
        self.dram.free(namespace.dram_tag)
        namespace.resident = False

    def open_namespace(self, namespace_id: int) -> Any:
        """Swap a namespace's mapping table back into DRAM."""
        namespace = self._namespace(namespace_id)
        if namespace.resident:
            return
        self.dram.allocate(namespace.dram_tag, namespace.index.memory_bytes)
        yield from self._swap_transfer(namespace)
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
    # Data path (Table I)
    # ------------------------------------------------------------------

    def get(self, namespace_id: int, key: int) -> Any:
        """``Get``: returns the value, or None when the key is absent."""
        result = yield from self.get_record(namespace_id, key)
        return result[0] if result is not None else None

    def get_record(
        self, namespace_id: int, key: int, ctx: Optional[TraceContext] = None
    ) -> Any:
        """``Get`` returning ``(value, size)`` — what the caching layer uses.

        With ``ctx`` the Get's spans join the caller's trace; without one
        it opens its own ``kaml.get`` trace when the tracer is armed, and
        is untraced (no tracing call at all) when it is not.
        """
        namespace = self._namespace(namespace_id)
        namespace.require_resident()
        namespace.gets_counter.inc()
        owns_ctx = ctx is None
        if owns_ctx and self.tracer.enabled:
            ctx = self.tracer.request("kaml.get", namespace=namespace_id, key=key)
        get_span = dispatch_span = None
        if ctx is not None:
            get_span = ctx.root if owns_ctx else ctx.begin(
                "kaml.get", namespace=namespace_id, key=key
            )
            dispatch_span = ctx.begin("get.dispatch", parent=get_span)
        started = self.env.now
        # Journal bookkeeping: the finally block records one op-journal
        # row per Get, so the return sites below keep these truthful.
        outcome = "error"
        out_size = 0
        try:
            yield from self.link.command_overhead()
            yield from self.firmware.execute(
                self.costs.dispatch_us, ctx=ctx, parent=dispatch_span
            )
            staged, location, scanned = self.mapping.lookup(namespace, key)
            if ctx is not None:
                ctx.finish(dispatch_span)
                get_span.tags["source"] = (
                    "staged" if staged is not None
                    else "absent" if location is None else "flash"
                )
            if staged is not None:
                namespace.staged_hits_counter.inc()
                _version, value, size = staged
                yield from self.firmware.execute(self.costs.hash_probe_us)
                if value is TOMBSTONE:  # an acked Delete, not yet installed
                    outcome = "absent"
                    return None
                if ctx is None:
                    yield from self.link.device_to_host(size)
                else:
                    with ctx.span("get.transfer", parent=get_span):
                        yield from self.link.device_to_host(size)
                outcome = "ok"
                out_size = size
                return value, size
            probe_span = ctx.begin(
                "get.index_probe", parent=get_span
            ) if ctx is not None else None
            self._index_probes_histogram.observe(scanned)
            yield from self.firmware.execute(scanned * self.costs.hash_probe_us)
            if ctx is not None:
                ctx.finish(probe_span)
            if location is None:
                outcome = "absent"
                return None
            record = yield from self.mapping.read(namespace.index, key, location, ctx, get_span)
            if record is None:
                if ctx is not None:
                    get_span.tags["source"] = "absent"
                outcome = "absent"
                return None
            if ctx is None:
                yield from self.link.device_to_host(record.size)
            else:
                with ctx.span("get.transfer", parent=get_span):
                    yield from self.link.device_to_host(record.size)
            outcome = "ok"
            out_size = record.size
            return record.value, record.size
        finally:
            trace_id = 0
            if ctx is not None:
                trace_id = ctx.trace_id
                if owns_ctx:
                    ctx.close()
                else:
                    ctx.finish(get_span)
            op_id = 0
            oplog = self.oplog
            if oplog is not None:
                op_id = oplog.record(
                    "get", namespace_id, key, out_size, started, self.env.now,
                    outcome=outcome, trace_id=trace_id,
                )
            self.slo.record(
                "get", namespace_id, started, self.env.now, trace_id,
                op_id=op_id,
            )

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
        # Drain this namespace's staging pipeline.
        settle_us = self.config.flash.program_us + self.config.kaml.flush_timeout_us
        for _ in range(64):
            if not self.mapping.staged_items(namespace_id):
                break
            for log in self.logs:
                log.force_flush()
            self.env.try_advance(settle_us) or (yield self.env.timeout(settle_us))
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
        return snapshot_id

    def delete_snapshot(self, snapshot_id: int) -> Any:
        """Drop a snapshot; its exclusive record versions become garbage."""
        snapshot = self._snapshot(snapshot_id)
        self.mapping.drop_snapshot(snapshot_id)
        self.dram.free(snapshot.dram_tag)
        yield from self.firmware.execute(self.costs.dispatch_us)

    def get_from_snapshot(self, snapshot_id: int, key: int) -> Any:
        """Read a key as of the snapshot instant."""
        snapshot = self._snapshot(snapshot_id)
        self._namespace(snapshot.namespace_id).gets_counter.inc()
        yield from self.link.command_overhead()
        yield from self.firmware.execute(self.costs.dispatch_us)
        location, scanned = snapshot.index.lookup(key)
        yield from self.firmware.execute(scanned * self.costs.hash_probe_us)
        if location is None:
            return None
        record = yield from self.mapping.read(snapshot.index, key, location)
        if record is None:
            return None
        yield from self.link.device_to_host(record.size)
        return record.value

    def _snapshot(self, snapshot_id: int) -> Snapshot:
        try:
            return self.snapshots[snapshot_id]
        except KeyError:
            raise SnapshotError(f"unknown snapshot id: {snapshot_id}") from None

    def scan(self, namespace_id: int, low: int, high: int) -> Any:
        """Range scan (extension): ``[(key, value)]`` for low <= key <= high.

        Requires the namespace to use the ``"sorted"`` index structure —
        the per-namespace flexibility Section IV-C motivates.  Staged
        (acknowledged but uninstalled) values and tombstones are merged
        in, so scans see every committed write and delete.
        """
        if low > high:
            raise KamlError(f"scan range is empty: [{low}, {high}]")
        namespace = self._namespace(namespace_id)
        namespace.require_resident()
        if not namespace.supports_range:
            raise KamlError(
                f"namespace {namespace_id} uses a hash index; create it with "
                f'index_structure="sorted" to enable Scan'
            )
        namespace.gets_counter.inc()
        started = self.env.now
        yield from self.link.command_overhead()
        yield from self.firmware.execute(self.costs.dispatch_us)
        on_flash = dict(namespace.index.range(low, high))
        staged = {
            key: (value, size)
            for key, value, size in self.mapping.staged_items(namespace_id)
            if low <= key <= high
        }
        matches = sorted(on_flash.keys() | staged.keys())
        yield from self.firmware.execute(
            (namespace.index._probes() + len(matches)) * self.costs.hash_probe_us
        )
        results = []
        total_bytes = 0
        for key in matches:
            if key in staged:
                value, size = staged[key]
                if value is TOMBSTONE:
                    continue  # an acked Delete, not yet installed
            else:
                record = yield from self.mapping.read(namespace.index, key, on_flash[key])
                if record is None:
                    continue  # deleted while the scan was in flight
                value, size = record.value, record.size
            results.append((key, value))
            total_bytes += size
        yield from self.link.device_to_host(total_bytes)
        oplog = self.oplog
        if oplog is not None:
            oplog.record(
                "scan", namespace_id, low, total_bytes, started, self.env.now,
                outcome="ok", key2=high,
            )
        return results

    def _validate_items(self, items: List[PutItem]) -> int:
        """Refuse a batch the device can never take, before any side
        effect; returns its total bytes.  A tombstone (size 0) counts the
        record header it pins."""
        if not items:
            raise KamlError("Put requires at least one record")
        total_bytes = 0
        for item in items:
            namespace = self.namespaces.get(item.namespace_id)
            if namespace is None or not namespace.resident:
                self._namespace(item.namespace_id).require_resident()  # raises
            if item.value is TOMBSTONE and item.size == 0:
                total_bytes += RECORD_HEADER_BYTES
                continue
            if item.size <= 0:
                raise KamlError(f"record size must be positive: {item!r}")
            if item.size > self._max_value_bytes:
                raise RecordTooLargeError(
                    f"value of {item.size} B does not fit in one flash page"
                )
            total_bytes += item.size
        if total_bytes > self.nvram.capacity_bytes:
            raise NvramExhausted(
                f"batch of {total_bytes} B exceeds NVRAM capacity "
                f"({self.nvram.capacity_bytes} B)"
            )
        return total_bytes

    def put(self, items: List[PutItem], ctx: Optional[TraceContext] = None) -> Any:
        """``Put``: atomic multi-record update/insert/delete (a ``TOMBSTONE``
        item of size 0 deletes its key).

        Returns once *logically committed* (phase 1: :meth:`_pin`, then
        :meth:`_commit`); the returned :class:`~repro.sim.Process` resolves
        when the batch is on flash with mapping tables updated (phases 2–3).
        """
        total_bytes = self._validate_items(items)
        self._puts_counter.inc()
        self._put_records_counter.inc(len(items))
        for item in items:  # plain adds per record: no call
            if item.value is TOMBSTONE:
                self.namespaces[item.namespace_id].deletes_counter.value += 1
            else:
                self.namespaces[item.namespace_id].put_bytes_counter.value += item.size
        owns_ctx = ctx is None
        put_span = phase1_span = None
        if not owns_ctx or self.tracer.enabled:
            span_tags = {
                "namespace": items[0].namespace_id,
                "records": len(items),
                "keys": [item.key for item in items],
            }
            if owns_ctx:
                ctx = self.tracer.request("kaml.put", **span_tags)
                put_span = ctx.root
            else:
                put_span = ctx.begin("kaml.put", **span_tags)
            phase1_span = ctx.begin(
                "put.phase1", parent=put_span, namespace=items[0].namespace_id
            )
        epoch = self.epoch
        phase1_start = self.env.now
        batch = StagedBatch("put", items)
        handle = yield from self._pin(batch, total_bytes, ctx, phase1_span)
        process = yield from self._commit(
            batch, handle, epoch, ctx, put_span, phase1_span, owns_ctx
        )
        if process is None:
            return None  # crashed mid-command; NVRAM replay owns the batch
        self._phase1_us_histogram.observe(self.env.now - phase1_start)
        trace_id = ctx.trace_id if ctx is not None else 0
        op_id = 0
        oplog = self.oplog
        if oplog is not None:
            # One row per record, journaled at the ack (the host-visible
            # completion); batch rows share a head id so replay regroups
            # the atomic batch.  A tombstone journals as a delete.
            op_id = oplog.record_batch(
                [
                    ("delete" if item.value is TOMBSTONE else "put",
                     item.namespace_id, item.key, item.size)
                    for item in items
                ],
                phase1_start, self.env.now, trace_id=trace_id,
            )
        self.slo.record(
            "put", items[0].namespace_id, phase1_start, self.env.now, trace_id,
            op_id=op_id,
        )
        return process

    def _pin(self, batch: StagedBatch, total_bytes: int, ctx=None, parent=None) -> Any:
        """Phase 1's first half, a Put's and a 2PC prepare's: move the batch
        over PCIe, pin it in NVRAM and copy it in.  Returns the NVRAM handle;
        the pin instant is stamped on the batch."""
        if ctx is not None:
            transfer_span = ctx.begin("put.transfer", parent=parent, bytes=total_bytes)
        yield from self.link.command_overhead()
        yield from self.link.host_to_device(total_bytes)
        if ctx is not None:
            ctx.finish(transfer_span)
            reserve_span = ctx.begin("put.nvram_reserve", parent=parent, bytes=total_bytes)
        nvram_wait_start = self.env.now
        if self.fault is not None:  # crash points inline: no call while unarmed
            self.fault.reached("put.before_nvram_pin")
        handle = self.nvram.try_reserve(total_bytes, payload=batch)
        if handle is None:
            handle = yield self.nvram.reserve(total_bytes, payload=batch)
        if self.fault is not None:
            self.fault.reached("put.after_nvram_pin")
        if ctx is not None:
            ctx.finish(reserve_span)
        self._nvram_wait_us_histogram.observe(self.env.now - nvram_wait_start)
        batch.pinned_at = self.env.now
        self._nvram_used_gauge.set(self.nvram.used_bytes)
        yield from self.firmware.execute(
            self.costs.dispatch_us + total_bytes / self.costs.nvram_copy_bytes_per_us,
            ctx=ctx, parent=parent,
        )
        return handle

    def _commit(
        self, batch: StagedBatch, handle: int, epoch: int,
        ctx=None, put_span=None, phase1_span=None, owns_ctx=False,
    ) -> Any:
        """Phase 1's second half, a Put's and a 2PC participant commit's:
        probe every key's index entry as one firmware wave (a batch pays
        ~one record's latency, not the serial sum), then assign the commit
        versions that order phase 3's installs (no entry stays locked
        across a flash program) and start phases 2–3.  Returns their
        process, or None if power was cut since ``epoch``."""
        if self.epoch == epoch:
            probe_span = None if ctx is None else ctx.begin("put.index_probe", parent=phase1_span)
            probe_costs = []
            for item in batch.items:
                existing, scanned = self.namespaces[item.namespace_id].index.lookup(item.key)
                cost = scanned * self.costs.hash_probe_us
                if existing is None and item.value is not TOMBSTONE:
                    cost += self.costs.hash_insert_us
                probe_costs.append(cost)
            if len(probe_costs) == 1:
                yield from self.firmware.execute(probe_costs[0], ctx=ctx, parent=probe_span)
            else:
                yield self.firmware.execute_wave(probe_costs, ctx=ctx, parent=probe_span)
            if ctx is not None:
                ctx.finish(probe_span)
        if self.epoch != epoch:
            if ctx is not None:
                put_span.tags["crashed"] = True
                if owns_ctx:
                    ctx.close()
            return None
        # The decisive NVRAM write: versions (and a prepare's kind) flip
        # atomically, so a crash from here on replays an acknowledged Put.
        records = self.mapping.commit(batch)
        batch.kind = "put"
        if ctx is not None:
            # Logically committed: acknowledge the host, finish in background.
            ctx.finish(phase1_span)
            ctx.event("put.ack", parent=put_span, namespace=batch.items[0].namespace_id)
            # Phases 2-3 outlive the caller's context (a committing txn
            # closes at the ack); detach so close() can't truncate the span.
            ctx.detach(put_span)
        # Phases 2-3 begin in this step, the one that acknowledges the Put.
        return self.env.start(
            self._complete_put(records, handle, epoch, batch, ctx, put_span, owns_ctx)
        )

    def _reappend(self, record: Record, epoch: int) -> Any:
        """Re-append a record whose phase-2 copy GC claimed before its install.

        GC deliberately treats appended-but-not-yet-installed records as
        garbage (no mapping points at them), so in the window between
        the flash append and the install's firmware work the containing
        block can be cleaned and erased.  Installing the stale location
        would publish a pointer into an erased — or worse, erased and
        reprogrammed — page.  :meth:`Mapping.severed` covers the whole
        window; while it holds, re-append the record under its original
        commit version and try again.  Returns the live location, or
        None if a newer write superseded this install (or the device
        crashed) while retrying.
        """
        while True:
            if self.mapping.superseded(record):
                return None  # a newer write won; this record is garbage
            landing = yield from self._append_record(record, epoch)
            if landing is None or self.epoch != epoch:
                return None
            self._reappends_counter.inc()
            if not self.mapping.severed(*landing):
                return landing[0]

    def _pick_log(self, namespace: Namespace, nchunks: int) -> KamlLog:
        """Host-record placement (:meth:`Namespace.pick_log`) as of *now*: ask
        right before staging, never ahead for a batch (all would see one state)."""
        return namespace.pick_log(
            self.logs, nchunks, self.env.now, self.config.kaml.flush_timeout_us
        )

    def _append_record(self, record, epoch: int) -> Any:
        """Append one record for :meth:`_reappend`; returns ``(location,
        erase mark)``, or None once the epoch moved or the namespace is gone
        (its records can never be read: garbage before they are written)."""
        if self.epoch != epoch or record.namespace_id not in self.namespaces:
            return None
        log = self._pick_log(
            self.namespaces[record.namespace_id], record.chunks(self.geometry.chunk_size)
        )
        location = yield from log.append(record)
        # Captured in the same event cascade as the append's completion:
        # see the same rule in _complete_put.
        return location, self.mapping.erase_mark(location.page)

    def _complete_put(
        self, records, handle, epoch, batch,
        ctx=None, put_span=None, owns_ctx=False,
    ) -> Any:
        """Phases 2 and 3: flash writes, then mapping-table installs.

        Background spans use backdated :meth:`TraceContext.record_span`
        rather than open spans: a committing transaction may close its
        context at the ack, and record-on-completion keeps these spans'
        end times truthful regardless of who owns the context.

        If a flash append fails (log full, program retries exhausted),
        the first one or the re-append of a record GC severed before its
        install, the pin is kept: the batch was acknowledged at the pin, so
        the pinned payload is its only durable copy and NVRAM replay owns it.
        """
        phase2_start = self.env.now
        phase2_span = None
        if ctx is not None:
            phase2_span = ctx.begin("put.phase2", parent=put_span)
            ctx.detach(phase2_span)
        # Phase 2 stages every record in this one step, asking for each
        # record's log right before staging it.  A record whose namespace
        # was deleted after the ack is skipped: it can never be read, so it
        # is garbage before it is written.  Records that share a page share
        # its one completion.
        landed: List[Optional[Tuple[RecordLocation, int]]] = [None] * len(records)
        #: page completion -> (index, start chunk, chunks, log) of each record in it
        stages: Dict[Event, List[Tuple[int, int, int, KamlLog]]] = {}
        chunk_size = self.geometry.chunk_size

        def land(event: Event) -> None:
            # The erase mark is captured in the dispatch that delivers the
            # page; capturing it later (say when the whole batch's all_of
            # fires) would race a GC erase of this block and make the stale
            # location look live.  Every record of the page shares its block.
            if event._exception is None:  # slots, not properties: no calls per record
                pointer = event._value
                mark = self.mapping.erase_mark(pointer)
                for index, start, nchunks, log in stages[event]:
                    landed[index] = (RecordLocation(pointer, start, nchunks), mark)
                    if ctx is not None:
                        record = records[index]
                        ctx.record_span(
                            "log.append", start_us=phase2_start, parent=phase2_span,
                            log=log.log_id, namespace=record.namespace_id, key=record.key,
                        )

        for index, record in enumerate(records):
            namespace = self.namespaces.get(record.namespace_id)
            if namespace is not None:
                nchunks = chunks_for(record.size, chunk_size)
                log = self._pick_log(namespace, nchunks)
                programmed, start = log.stage(record, nchunks, for_gc=False)
                if programmed not in stages:
                    stages[programmed] = []
                    programmed.add_callback(land)
                stages[programmed].append((index, start, nchunks, log))
        append_failed = False
        try:
            try:
                yield self.env.all_of(list(stages))
                install_start = self.env.now
                yield from self.firmware.execute(
                    len(records) * (self.costs.per_record_us + self.costs.hash_update_us)
                )
                if self.epoch == epoch and self.fault is not None:
                    self.fault.reached("put.before_install")
                if self.epoch == epoch:
                    for record, landing in zip(records, landed):
                        if landing is None:
                            continue  # never appended: a cut, or the namespace is gone
                        location, mark = landing
                        if self.mapping.severed(location, mark):
                            location = yield from self._reappend(record, epoch)
                        if location is not None and self.epoch == epoch:
                            self.mapping.install(record, location)
            except LogSpaceError:
                # The first append or a re-append of a record GC severed:
                # keep the pin, replay owns the acked batch.
                append_failed = True
                self._append_failures_counter.inc()
                if ctx is not None:
                    phase2_span.tags["failed"] = True
                return
            if ctx is not None:
                ctx.record_span("put.install", start_us=install_start, parent=phase2_span)
        finally:
            if self.epoch == epoch and not append_failed:
                self.nvram.release(handle)
                self._nvram_pin_us_histogram.observe(self.env.now - batch.pinned_at)
                self._phase2_us_histogram.observe(self.env.now - phase2_start)
                self._nvram_used_gauge.set(self.nvram.used_bytes)
                if ctx is not None:
                    ctx.record_span("put.nvram_pin", start_us=batch.pinned_at, parent=put_span)
            if ctx is not None:
                ctx.finish(phase2_span)
                if put_span is not None:
                    # Detached at the ack — close() below cannot reach it.
                    ctx.finish(put_span)
                if owns_ctx:
                    ctx.close()

    def delete(self, namespace_id: int, key: int) -> Any:
        """Remove a key (extension beyond Table I): a one-record ``Put`` of a
        tombstone, so it pins, acks, appends, installs and replays as a Put
        does.  Returns True if the key was readable when the Delete was
        issued."""
        namespace = self._namespace(namespace_id)
        namespace.require_resident()
        existed = self.mapping.readable(namespace, key)
        yield from self.put([PutItem(namespace_id, key, TOMBSTONE, 0)])
        return existed

    # ------------------------------------------------------------------
    # Host-side 2PC participant surface (the repro.cluster serving tier)
    # ------------------------------------------------------------------

    def prepare_batch(self, items: List[PutItem], txn_id: int) -> Any:
        """Participant *prepare*: a Put's :meth:`_pin` alone; returns the handle.

        The batch is durable but unversioned and unreadable, in doubt until
        the coordinator drives :meth:`commit_prepared` or
        :meth:`abort_prepared`.  :meth:`recover` keeps the pin instead of
        replaying it, so the coordinator's intent journal alone decides.
        """
        total_bytes = self._validate_items(items)
        self._prepares_counter.inc()
        return (yield from self._pin(StagedBatch("prepare", items, txn_id=txn_id), total_bytes))

    def commit_prepared(self, handle: int) -> Any:
        """Participant *commit*: a Put's :meth:`_commit` of the prepared batch.

        It probes as a Put does and stamps versions into the pinned payload,
        which from then on replays as an acknowledged ``Put``.  Returns the
        phases 2–3 process, or None if power was cut mid-commit (the pin,
        still ``"prepare"``, survives)."""
        batch = self.nvram.payload(handle)
        if not isinstance(batch, StagedBatch) or batch.kind != "prepare":
            raise KamlError(f"NVRAM handle {handle} does not hold a prepared batch")
        self._prepare_commits_counter.inc()
        for item in batch.items:
            self._namespace(item.namespace_id).require_resident()
        return (yield from self._commit(batch, handle, self.epoch))

    def abort_prepared(self, handle: int) -> Any:
        """Participant *abort*: drop a prepared batch without a trace."""
        batch = self.nvram.payload(handle)
        if not isinstance(batch, StagedBatch) or batch.kind != "prepare":
            raise KamlError(f"NVRAM handle {handle} does not hold a prepared batch")
        self._prepare_aborts_counter.inc()
        self.nvram.release(handle)
        self._nvram_used_gauge.set(self.nvram.used_bytes)
        yield from self.firmware.execute(self.costs.dispatch_us)

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

    def list_keys(self, namespace_id: int) -> Any:
        """Management command: every readable key of a namespace, sorted.

        Used by the cluster serving tier to migrate a namespace between
        devices; a firmware-side index walk, not a flash scan, so it
        works for hash indexes that cannot serve ``Scan``.
        """
        namespace = self._namespace(namespace_id)
        namespace.require_resident()
        yield from self.link.command_overhead()
        keys = {key for key, _location in namespace.index.items()}
        for key, value, _size in self.mapping.staged_items(namespace_id):
            if value is TOMBSTONE:
                keys.discard(key)  # an acked Delete, not yet installed
            else:
                keys.add(key)
        yield from self.firmware.execute(
            self.costs.dispatch_us + len(keys) * self.costs.hash_probe_us
        )
        return sorted(keys)

    # ------------------------------------------------------------------
    # Crash and recovery (Section IV-D failure handling)
    # ------------------------------------------------------------------

    def _crash_point(self, name: str) -> None:
        """Announce a named crash point to an attached fault injector."""
        fault = self.fault
        if fault is not None:
            fault.reached(name)

    def power_loss(self) -> None:
        """Full power cut: every byte of controller DRAM is gone.

        Mapping tables, valid-byte and version accounting, block lists,
        and snapshots all vanish.  Only NVRAM reservations and flash pages
        whose program completed survive; :meth:`recover` must rebuild
        everything else by scanning flash.  Processes from before the cut
        become ghosts.
        """
        self.epoch += 1
        self.array.power_loss()  # in-flight programs/erases never land
        for log in self.logs:
            log.power_loss()
        self.nvram.power_loss()
        for holder in [*self.snapshots.values(), *self.namespaces.values()]:
            if self.dram.holds(holder.dram_tag):
                self.dram.free(holder.dram_tag)
        self.mapping.clear()
        self.metrics.counter("kaml.ssd.power_losses").inc()

    def recover(self) -> Any:
        """Bring the device back to a consistent, serving state after
        :meth:`power_loss`.

        It first rebuilds the per-namespace mapping tables by scanning
        every programmed flash page through its OOB bitmap — flash is
        self-describing (Figure 4) — ranking copies of a key by record
        sequence (last-writer-wins), then replays every staged NVRAM
        batch (redo logging, Section IV-D).  Batches replay oldest-first
        with their phase-1 commit versions, so the result is as if each
        acknowledged command had completed just before the crash;
        never-acknowledged batches apply atomically or not at all.  A
        power cut landing mid-recovery bumps the epoch, and the caller
        restarts ``recover()`` from scratch.
        """
        staged = list(self.nvram.live_payloads())
        ctx = self.tracer.request("kaml.recover", batches=len(staged))
        yield from self._rebuild_from_flash(ctx)
        for handle, batch in staged:
            if not isinstance(batch, StagedBatch):
                raise InvariantError(
                    "SAN-NVRAM",
                    f"NVRAM handle {handle} holds a foreign payload "
                    f"({type(batch).__name__}); only StagedBatch pins can replay",
                )
            if batch.kind == "prepare":
                # In-doubt 2PC participant batch: durable but undecided.
                # Keep the pin; only the cluster coordinator's intent
                # journal may commit or abort it (presumed abort there).
                self.metrics.counter("kaml.ssd.preserved_prepares").inc()
                if ctx is not None:
                    ctx.event("recover.prepare_preserved", txn=batch.txn_id)
                continue
            versioned = batch.versions is not None  # replay stamps the rest
            replayed = yield from self._replay_batch(batch)
            self.nvram.release(handle)
            self.metrics.counter("kaml.ssd.recovered_batches").inc()
            if ctx is not None:
                ctx.event(
                    "recover.batch_replayed",
                    kind=batch.kind,
                    records=replayed,
                    versioned=versioned,
                )
        if sanitize.enabled():
            # SAN-OOB / SAN-VALID: the rebuilt mapping tables, the OOB
            # bitmaps they reference, and valid-byte accounting must all
            # agree before the device serves traffic again.
            sanitize.check_recovery(self.mapping)
        if ctx is not None:
            ctx.close()
        self.env.try_advance(0.0) or (yield self.env.timeout(0.0))

    def _rebuild_from_flash(self, ctx: Optional[TraceContext] = None) -> Any:
        """Reconstruct mapping tables and block lists by scanning flash.

        Each log reads its own target (:meth:`KamlLog.rescan`).  The
        newest copy of each key wins by record sequence, with physical
        position as the tie-break for GC-duplicated copies of the same
        version.  The version counter resumes above every sequence seen
        — including stale copies — so new commits always outrank
        pre-crash ones.
        """
        scan_start = self.env.now
        winners: Dict[Tuple[int, int], Tuple[Tuple[int, Tuple[int, ...]], Record,
                                             RecordLocation]] = {}
        max_seq = 0
        scanned_records = 0
        scanned_pages = 0
        for log in self.logs:
            pages, found = yield from log.rescan(ctx)
            scanned_pages += pages
            scanned_records += len(found)
            for record, location in found:
                max_seq = max(max_seq, record.seq)
                rank = (record.seq, (*location.page, location.chunk))
                entry_key = (record.namespace_id, record.key)
                previous = winners.get(entry_key)
                if previous is None or rank > previous[0]:
                    winners[entry_key] = (rank, record, location)
        self.mapping.resume_versions(max_seq)
        # Fresh mapping tables, then install each key's newest copy.
        for namespace in self.namespaces.values():
            index = Namespace.build_index(
                namespace.attributes, self.config.kaml.index_bucket_slots
            )
            if self.dram.holds(namespace.dram_tag):
                self.dram.free(namespace.dram_tag)
            self.dram.allocate(namespace.dram_tag, index.memory_bytes)
            namespace.index = index
            namespace.resident = True
        inserts = 0
        for entry_key in sorted(winners):
            _rank, record, location = winners[entry_key]
            if record.namespace_id not in self.namespaces:
                continue  # records of a deleted namespace are garbage
            self.mapping.install(record, location)
            if record.value is not TOMBSTONE:
                inserts += 1
        yield from self.firmware.execute(
            inserts * (self.costs.hash_insert_us + self.costs.per_record_us)
        )
        self.metrics.counter("kaml.recover.scanned_pages").inc(scanned_pages)
        self.metrics.counter("kaml.recover.scanned_records").inc(scanned_records)
        self.metrics.counter("kaml.recover.installed_keys").inc(inserts)
        self.metrics.observe("kaml.recover.scan_us", self.env.now - scan_start)
        if ctx is not None:
            ctx.event(
                "recover.scan",
                pages=scanned_pages,
                records=scanned_records,
                keys=inserts,
                max_seq=max_seq,
            )

    def _replay_batch(self, batch: StagedBatch) -> Any:
        """Re-append one pinned NVRAM batch and install its mappings.

        Returns the number of records replayed.  Versioned batches
        (acknowledged before the crash) install under their original
        commit versions — idempotent against copies the flash scan
        already recovered, and correctly superseded by any newer version
        the scan saw.  Unversioned batches were never acknowledged;
        they apply all-or-nothing with fresh versions.
        """
        staged = []
        touched = set()
        for record in self.mapping.commit(batch):
            namespace = self.namespaces.get(record.namespace_id)
            if namespace is None:
                continue
            nchunks = record.chunks(self.geometry.chunk_size)
            log = self._pick_log(namespace, nchunks)
            staged.append((record, nchunks, *log.stage(record, nchunks, for_gc=False)))
            touched.add(log.log_id)
        for log_id in sorted(touched):
            self.logs[log_id].force_flush()
        for record, nchunks, page, start in staged:
            self.mapping.install(record, RecordLocation((yield page), start, nchunks))
        return len(staged)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _namespace(self, namespace_id: int) -> Namespace:
        try:
            return self.namespaces[namespace_id]
        except KeyError:
            raise NamespaceError(f"unknown namespace id: {namespace_id}") from None

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
