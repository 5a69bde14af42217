"""Power loss and recovery (Section IV-D failure handling).  Each function
takes the device first; :class:`~repro.kaml.ssd.KamlSsd` binds
``power_loss`` and ``recover`` as its methods."""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro import sanitize
from repro.errors import InvariantError, PowerLossError
from repro.kaml.namespace import Namespace
from repro.kaml.put import StagedBatch, stage_record
from repro.kaml.record import TOMBSTONE, Record, RecordLocation
from repro.obs import TraceContext


def power_loss(ssd) -> None:
    """Full power cut: every byte of controller DRAM is gone.

    Mapping tables, valid-byte and version accounting, block lists,
    and snapshots all vanish.  Only NVRAM reservations and flash pages
    whose program completed survive; :func:`recover` must rebuild
    everything else by scanning flash.

    The device's processes (page flushes, GC passes, Put phases 2–3) end
    here, once the state they would touch is reset: a program or erase in
    flight never lands and frees its die now.  Host commands run in their
    callers' processes and keep their fences on the power epoch, which
    :meth:`Mapping.clear` bumps.
    """
    for log in ssd.logs:
        log.power_loss()
    ssd.nvram.power_loss()
    for holder in [*ssd.snapshots.values(), *ssd.namespaces.values()]:
        if ssd.dram.holds(holder.dram_tag):
            ssd.dram.free(holder.dram_tag)
    ssd.mapping.clear()
    for process in list(ssd.mapping.processes):
        process.kill(PowerLossError("power lost under a device process"))
    ssd.metrics.counter("kaml.ssd.power_losses").inc()


def recover(ssd) -> Any:
    """Bring the device back to a consistent, serving state after
    :func:`power_loss`.

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
    staged = list(ssd.nvram.live_payloads())
    ctx = ssd.tracer.request("kaml.recover", batches=len(staged))
    yield from _rebuild_from_flash(ssd, ctx)
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
            ssd.metrics.counter("kaml.ssd.preserved_prepares").inc()
            if ctx is not None:
                ctx.event("recover.prepare_preserved", txn=batch.txn_id)
            continue
        versioned = batch.versions is not None  # replay stamps the rest
        replayed = yield from _replay_batch(ssd, batch)
        ssd.nvram.release(handle)
        ssd.metrics.counter("kaml.ssd.recovered_batches").inc()
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
        sanitize.check_recovery(ssd.mapping)
    if ctx is not None:
        ctx.close()
    ssd.env.try_advance(0.0) or (yield ssd.env.timeout(0.0))


def _rebuild_from_flash(ssd, ctx: Optional[TraceContext] = None) -> Any:
    """Reconstruct mapping tables and block lists by scanning flash.

    Each log reads its own target (:meth:`KamlLog.rescan`).  The
    newest copy of each key wins by record sequence, with physical
    position as the tie-break for GC-duplicated copies of the same
    version.  The version counter resumes above every sequence seen
    — including stale copies — so new commits always outrank
    pre-crash ones.
    """
    scan_start = ssd.env.now
    winners: Dict[Tuple[int, int], Tuple[Tuple[int, Tuple[int, ...]], Record,
                                         RecordLocation]] = {}
    max_seq = 0
    scanned_records = 0
    scanned_pages = 0
    for log in ssd.logs:
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
    ssd.mapping.resume_versions(max_seq)
    # Fresh mapping tables, then install each key's newest copy.
    for namespace in ssd.namespaces.values():
        index = Namespace.build_index(
            namespace.attributes, ssd.config.kaml.index_bucket_slots
        )
        if ssd.dram.holds(namespace.dram_tag):
            ssd.dram.free(namespace.dram_tag)
        ssd.dram.allocate(namespace.dram_tag, index.memory_bytes)
        namespace.index = index
        namespace.resident = True
    inserts = 0
    for entry_key in sorted(winners):
        _rank, record, location = winners[entry_key]
        if record.namespace_id not in ssd.namespaces:
            continue  # records of a deleted namespace are garbage
        ssd.mapping.install(record, location)
        if record.value is not TOMBSTONE:
            inserts += 1
    yield from ssd.firmware.execute(
        inserts * (ssd.costs.hash_insert_us + ssd.costs.per_record_us)
    )
    ssd.metrics.counter("kaml.recover.scanned_pages").inc(scanned_pages)
    ssd.metrics.counter("kaml.recover.scanned_records").inc(scanned_records)
    ssd.metrics.counter("kaml.recover.installed_keys").inc(inserts)
    ssd.metrics.observe("kaml.recover.scan_us", ssd.env.now - scan_start)
    if ctx is not None:
        ctx.event(
            "recover.scan",
            pages=scanned_pages,
            records=scanned_records,
            keys=inserts,
            max_seq=max_seq,
        )


def _replay_batch(ssd, batch: StagedBatch) -> Any:
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
    for record in ssd.mapping.commit(batch):
        placed = stage_record(ssd, record)
        if placed is None:
            continue
        programmed, start, nchunks, log = placed
        staged.append((record, nchunks, programmed, start))
        touched.add(log.log_id)
    for log_id in sorted(touched):
        ssd.logs[log_id].force_flush()
    for record, nchunks, page, start in staged:
        ssd.mapping.install(record, RecordLocation((yield page), start, nchunks))
    return len(staged)
