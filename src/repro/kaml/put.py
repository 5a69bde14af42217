"""``Put``: the paper's two-phase write command (Section IV-D).

1. The batch is transferred over PCIe and pinned in battery-backed NVRAM
   (:func:`_pin`); the firmware probes/reserves each key's index entry and
   assigns commit versions (:func:`_commit`).  The command is now
   *logically committed* and the host is acknowledged.  A 2PC
   participant's prepare is the first half alone, and its commit the
   second.
2. Records are appended to logs (one flash program per packed page).
3. The firmware installs the new physical addresses in the mapping
   tables, adjusts valid-byte accounting, and frees NVRAM.

Phases 2–3 run in a background process (:func:`_complete_put`), one of
the device's registered processes that a power cut ends; the
host-visible latency is phase 1 — which is why small ``Put`` latency
beats block ``write`` (Figure 6b) even though flash programs are slow.

Where the paper says the firmware "locks" index entries across all three
phases, this implementation orders concurrent same-key Puts by a version
assigned at phase 1 and serves acknowledged-but-uninstalled values from
the NVRAM staging area.  The observable semantics are identical (atomic,
ordered, read-after-ack), but hot keys are not rate-limited to one
update per flash-program, which the paper's sustained YCSB-zipfian
throughput implies their firmware avoids too.
Each function takes the device first; :class:`~repro.kaml.ssd.KamlSsd`
binds ``put`` as its method.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import ReproError
from repro.kaml.log import KamlLog, LogSpaceError
from repro.kaml.record import (
    RECORD_HEADER_BYTES,
    TOMBSTONE,
    Record,
    RecordLocation,
    RecordTooLargeError,
    chunks_for,
)
from repro.obs import TraceContext
from repro.sim import Event
from repro.ssd import NvramExhausted


class KamlError(ReproError):
    """Command-level failure on the KAML SSD."""


class PutItem(NamedTuple):
    """One element of a (possibly multi-record) atomic ``Put`` (Table I)."""

    namespace_id: int
    key: int
    value: Any
    size: int


class StagedBatch:
    """Durable NVRAM payload of one command, pinned by :func:`_pin` at
    ``pinned_at``.

    ``kind`` is ``"put"`` or ``"prepare"``.  ``versions`` holds the commit
    versions :func:`_commit` assigned, stamped into the payload after the
    pin (mutating this object models writing into the already-reserved
    NVRAM region); it stays None when a crash caught the batch between the
    pin and the commit — such a batch was never acknowledged and replays
    all-or-nothing with fresh versions.

    A ``"prepare"`` batch is a host-side 2PC participant's
    (``repro.cluster``): pinned but not committed, so durable but
    *undecided*.  It is never staged for reads, and recovery
    (:mod:`repro.kaml.recovery`) keeps it pinned instead of replaying it —
    only the coordinator's intent journal can commit it (through the same
    ``_commit``, which flips its kind to ``"put"``) or abort it.
    ``txn_id`` names its transaction.
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


def put(ssd, items: List[PutItem], ctx: Optional[TraceContext] = None) -> Any:
    """``Put``: atomic multi-record update/insert/delete (a ``TOMBSTONE``
    item of size 0 deletes its key).

    Returns once *logically committed* (phase 1: :func:`_pin`, then
    :func:`_commit`); the returned :class:`~repro.sim.Process` resolves
    when the batch is on flash with mapping tables updated (phases 2–3).
    """
    total_bytes = _validate_items(ssd, items)
    ssd._puts_counter.inc()
    ssd._put_records_counter.inc(len(items))
    for item in items:  # plain adds per record: no call
        if item.value is TOMBSTONE:
            ssd.namespaces[item.namespace_id].deletes_counter.value += 1
        else:
            ssd.namespaces[item.namespace_id].put_bytes_counter.value += item.size
    owns_ctx = ctx is None
    put_span = phase1_span = None
    if not owns_ctx or ssd.tracer.enabled:
        span_tags = {
            "namespace": items[0].namespace_id,
            "records": len(items),
            "keys": [item.key for item in items],
        }
        if owns_ctx:
            ctx = ssd.tracer.request("kaml.put", **span_tags)
            put_span = ctx.root
        else:
            put_span = ctx.begin("kaml.put", **span_tags)
        phase1_span = ctx.begin(
            "put.phase1", parent=put_span, namespace=items[0].namespace_id
        )
    epoch = ssd.mapping.epoch
    phase1_start = ssd.env.now
    batch = StagedBatch("put", items)
    handle = yield from _pin(ssd, batch, total_bytes, ctx, phase1_span)
    process = yield from _commit(
        ssd, batch, handle, epoch, ctx, put_span, phase1_span, owns_ctx
    )
    if process is None:
        return None  # crashed mid-command; NVRAM replay owns the batch
    ssd._phase1_us_histogram.observe(ssd.env.now - phase1_start)
    trace_id = ctx.trace_id if ctx is not None else 0
    op_id = 0
    oplog = ssd.oplog
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
            phase1_start, ssd.env.now, trace_id=trace_id,
        )
    ssd.slo.record(
        "put", items[0].namespace_id, phase1_start, ssd.env.now, trace_id,
        op_id=op_id,
    )
    return process


def _validate_items(ssd, items: List[PutItem]) -> int:
    """Refuse a batch the device can never take, before any side
    effect; returns its total bytes.  A tombstone (size 0) counts the
    record header it pins."""
    if not items:
        raise KamlError("Put requires at least one record")
    total_bytes = 0
    for item in items:
        namespace = ssd.namespaces.get(item.namespace_id)
        if namespace is None or not namespace.resident:
            ssd._namespace(item.namespace_id).require_resident()  # raises
        if item.value is TOMBSTONE and item.size == 0:
            total_bytes += RECORD_HEADER_BYTES
            continue
        if item.size <= 0:
            raise KamlError(f"record size must be positive: {item!r}")
        if item.size > ssd._max_value_bytes:
            raise RecordTooLargeError(
                f"value of {item.size} B does not fit in one flash page"
            )
        total_bytes += item.size
    if total_bytes > ssd.nvram.capacity_bytes:
        raise NvramExhausted(
            f"batch of {total_bytes} B exceeds NVRAM capacity "
            f"({ssd.nvram.capacity_bytes} B)"
        )
    return total_bytes


def _pin(ssd, batch: StagedBatch, total_bytes: int, ctx=None, parent=None) -> Any:
    """Phase 1's first half, a Put's and a 2PC prepare's: move the batch
    over PCIe, pin it in NVRAM and copy it in.  Returns the NVRAM handle;
    the pin instant is stamped on the batch."""
    if ctx is not None:
        transfer_span = ctx.begin("put.transfer", parent=parent, bytes=total_bytes)
    yield from ssd.link.command_overhead()
    yield from ssd.link.host_to_device(total_bytes)
    if ctx is not None:
        ctx.finish(transfer_span)
        reserve_span = ctx.begin("put.nvram_reserve", parent=parent, bytes=total_bytes)
    nvram_wait_start = ssd.env.now
    if ssd.fault is not None:  # crash points inline: no call while unarmed
        ssd.fault.reached("put.before_nvram_pin")
    handle = ssd.nvram.try_reserve(total_bytes, payload=batch)
    if handle is None:
        handle = yield ssd.nvram.reserve(total_bytes, payload=batch)
    if ssd.fault is not None:
        ssd.fault.reached("put.after_nvram_pin")
    if ctx is not None:
        ctx.finish(reserve_span)
    ssd._nvram_wait_us_histogram.observe(ssd.env.now - nvram_wait_start)
    batch.pinned_at = ssd.env.now
    ssd._nvram_used_gauge.set(ssd.nvram.used_bytes)
    yield from ssd.firmware.execute(
        ssd.costs.dispatch_us + total_bytes / ssd.costs.nvram_copy_bytes_per_us,
        ctx=ctx, parent=parent,
    )
    return handle


def _commit(
    ssd, batch: StagedBatch, handle: int, epoch: int,
    ctx=None, put_span=None, phase1_span=None, owns_ctx=False,
) -> Any:
    """Phase 1's second half, a Put's and a 2PC participant commit's:
    probe every key's index entry as one firmware wave (a batch pays
    ~one record's latency, not the serial sum), then assign the commit
    versions that order phase 3's installs (no entry stays locked
    across a flash program) and start phases 2–3.  Returns their
    process, or None if power was cut since ``epoch``.  A participant
    commit has no ``put_span``: its spans join the coordinator's under
    ``phase1_span``, and it acknowledges no host."""
    if ssd.mapping.epoch == epoch:
        probe_span = None if ctx is None else ctx.begin("put.index_probe", parent=phase1_span)
        probe_costs = []
        for item in batch.items:
            existing, scanned = ssd.namespaces[item.namespace_id].index.lookup(item.key)
            cost = scanned * ssd.costs.hash_probe_us
            if existing is None and item.value is not TOMBSTONE:
                cost += ssd.costs.hash_insert_us
            probe_costs.append(cost)
        if len(probe_costs) == 1:
            yield from ssd.firmware.execute(probe_costs[0], ctx=ctx, parent=probe_span)
        else:
            yield ssd.firmware.execute_wave(probe_costs, ctx=ctx, parent=probe_span)
        if ctx is not None:
            ctx.finish(probe_span)
    if ssd.mapping.epoch != epoch:
        if put_span is not None:
            put_span.tags["crashed"] = True
            if owns_ctx:
                ctx.close()
        return None
    # The decisive NVRAM write: versions (and a prepare's kind) flip
    # atomically, so a crash from here on replays an acknowledged Put.
    records = ssd.mapping.commit(batch)
    batch.kind = "put"
    if put_span is not None:
        # Logically committed: acknowledge the host, finish in background.
        ctx.finish(phase1_span)
        ctx.event("put.ack", parent=put_span, namespace=batch.items[0].namespace_id)
        # Phases 2-3 outlive the caller's context (a committing txn
        # closes at the ack); detach so close() can't truncate the span.
        ctx.detach(put_span)
    # Phases 2-3 begin in this step, the one that acknowledges the Put.
    return ssd.env.start(
        _complete_put(ssd, records, handle, batch, ctx, put_span, owns_ctx),
        ssd.mapping.processes,
    )


def stage_record(ssd, record: Record) -> Optional[Tuple[Event, int, int, KamlLog]]:
    """Stage ``record`` in the log :meth:`Namespace.pick_log` picks *now*
    (never ahead for a batch: all would see one state).  Returns the page's
    completion, the record's first chunk, its chunks and the log; None when
    its namespace is gone (garbage before it is written)."""
    namespace = ssd.namespaces.get(record.namespace_id)
    if namespace is None:
        return None
    nchunks = chunks_for(record.size, ssd.geometry.chunk_size)
    log = namespace.pick_log(ssd.logs, nchunks, ssd.env.now, ssd.config.kaml.flush_timeout_us)
    programmed, start = log.stage(record, nchunks, for_gc=False)
    return programmed, start, nchunks, log


def _reappend(ssd, record: Record) -> Any:
    """Re-append a record whose phase-2 copy GC claimed before its install.

    GC deliberately treats appended-but-not-yet-installed records as
    garbage (no mapping points at them), so in the window between
    the flash append and the install's firmware work the containing
    block can be cleaned and erased.  Installing the stale location
    would publish a pointer into an erased — or worse, erased and
    reprogrammed — page.  :meth:`Mapping.severed` covers the whole
    window; while it holds, re-append the record under its original
    commit version and try again.  Returns the live location, or
    None if a newer write superseded this install (or the namespace
    went) while retrying.
    """
    while True:
        if ssd.mapping.superseded(record):
            return None  # a newer write won; this record is garbage
        staged = stage_record(ssd, record)
        if staged is None:
            return None
        programmed, start, nchunks, _log = staged
        location = RecordLocation((yield programmed), start, nchunks)
        # Captured in the same event cascade as the append's completion:
        # see the same rule in _complete_put.
        mark = ssd.mapping.erase_mark(location.page)
        ssd._reappends_counter.inc()
        if not ssd.mapping.severed(location, mark):
            return location


def _complete_put(
    ssd, records, handle, batch,
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
    So is a batch whose phases a power cut ended: the pin is released
    on the success path alone, never in a ``finally``.
    """
    phase2_start = ssd.env.now
    phase2_span = None
    if ctx is not None:
        phase2_span = ctx.begin("put.phase2", parent=put_span)
        ctx.detach(phase2_span)
    # Phase 2 stages every record in this one step, asking for each
    # record's log right before staging it.  A record whose namespace was
    # deleted after the ack is skipped.  Records that share a page share
    # its one completion.
    landed: List[Optional[Tuple[RecordLocation, int]]] = [None] * len(records)
    #: page completion -> (index, start chunk, chunks, log) of each record in it
    stages: Dict[Event, List[Tuple[int, int, int, KamlLog]]] = {}

    def land(event: Event) -> None:
        # The erase mark is captured in the dispatch that delivers the
        # page; capturing it later (say when the whole batch's all_of
        # fires) would race a GC erase of this block and make the stale
        # location look live.  Every record of the page shares its block.
        if event._exception is None:  # slots, not properties: no calls per record
            pointer = event._value
            mark = ssd.mapping.erase_mark(pointer)
            for index, start, nchunks, log in stages[event]:
                landed[index] = (RecordLocation(pointer, start, nchunks), mark)
                if ctx is not None:
                    record = records[index]
                    ctx.record_span(
                        "log.append", start_us=phase2_start, parent=phase2_span,
                        log=log.log_id, namespace=record.namespace_id, key=record.key,
                    )

    for index, record in enumerate(records):
        staged = stage_record(ssd, record)
        if staged is not None:
            programmed, start, nchunks, log = staged
            if programmed not in stages:
                stages[programmed] = []
                programmed.add_callback(land)
            stages[programmed].append((index, start, nchunks, log))
    try:
        try:
            yield ssd.env.all_of(list(stages))
            install_start = ssd.env.now
            yield from ssd.firmware.execute(
                len(records) * (ssd.costs.per_record_us + ssd.costs.hash_update_us)
            )
            if ssd.fault is not None:
                ssd.fault.reached("put.before_install")
            for record, landing in zip(records, landed):
                if landing is None:
                    continue  # never appended: the namespace is gone
                location, mark = landing
                if ssd.mapping.severed(location, mark):
                    location = yield from _reappend(ssd, record)
                if location is not None:
                    ssd.mapping.install(record, location)
        except LogSpaceError:
            # The first append or a re-append of a record GC severed:
            # keep the pin, replay owns the acked batch.
            ssd._append_failures_counter.inc()
            if ctx is not None:
                phase2_span.tags["failed"] = True
            return
        if ctx is not None:
            ctx.record_span("put.install", start_us=install_start, parent=phase2_span)
        ssd.nvram.release(handle)
        ssd._nvram_pin_us_histogram.observe(ssd.env.now - batch.pinned_at)
        ssd._phase2_us_histogram.observe(ssd.env.now - phase2_start)
        ssd._nvram_used_gauge.set(ssd.nvram.used_bytes)
        if put_span is not None:  # a participant's pin spans the coordinator's phases
            ctx.record_span("put.nvram_pin", start_us=batch.pinned_at, parent=put_span)
    finally:
        if ctx is not None:
            ctx.finish(phase2_span)
            if put_span is not None:
                # Detached at the ack — close() below cannot reach it.
                ctx.finish(put_span)
            if owns_ctx:
                ctx.close()
