"""The read path — ``Get`` (Table I), snapshot reads, ``Scan``, key
listing — around :func:`resolve`, the one decision of which copy of a key
a reader sees.  Each command takes the device first and is bound as a
:class:`~repro.kaml.ssd.KamlSsd` method.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.errors import PowerLossError
from repro.kaml.put import KamlError
from repro.kaml.record import TOMBSTONE
from repro.kaml.snapshot import Snapshot
from repro.obs import TraceContext


def resolve(mapping, holder, key: int, epoch: int) -> Tuple[Any, Any, int]:
    """``(staged, location, probes)``: a staged value or tombstone (an
    acked, uninstalled Put or Delete: ``staged`` is its ``(version, value,
    size)``), else an indexed ``location``, else absent (both None).

    ``holder`` is a namespace, or a snapshot: a table with no staged
    overlay.  A read begun before a power cut (a ghost: the mapping
    ``epoch`` moved) ends here instead of touching a cleared table.
    """
    if mapping.epoch != epoch:
        raise PowerLossError(f"power lost under a read of key {key}")
    if holder.__class__ is not Snapshot:
        staged = mapping._staged.get((holder.namespace_id, key))
        if staged is not None:
            return staged, None, 0
    location, probes = holder.index.lookup(key)
    return None, location, probes


def staged_keys(mapping, namespace_id: int) -> List[int]:
    """Keys of a namespace's acked, uninstalled Puts and Deletes."""
    return [key for staged_ns, key in mapping._staged if staged_ns == namespace_id]


def _resolve_all(
    mapping, namespace, epoch: int, low: Optional[int] = None, high: Optional[int] = None,
) -> Tuple[int, List[Tuple[int, Any, Any]]]:
    """Resolve, in key order, every key in ``[low, high]`` (all when
    ``low`` is None) the namespace's table or staged overlay holds, fenced
    as :func:`resolve` is.  Returns how many, and the readable answers
    ``(key, staged, location)``."""
    if mapping.epoch != epoch:
        raise PowerLossError(f"power lost under a walk of namespace {namespace.namespace_id}")
    index = namespace.index
    keys = {key for key, _location in (index.items() if low is None else index.range(low, high))}
    keys.update(
        key for key in staged_keys(mapping, namespace.namespace_id)
        if low is None or low <= key <= high
    )
    readable = []
    for key in sorted(keys):
        staged, location, _probes = resolve(mapping, namespace, key, epoch)
        if (location is not None) if staged is None else (staged[1] is not TOMBSTONE):
            readable.append((key, staged, location))
    return len(keys), readable


def _read_out(ssd, table, answers, epoch: int) -> Any:
    """Scan's and a snapshot read's tail: each answer's value from the
    overlay or from flash (pinned), then one transfer to the host.  Returns
    ``[(key, value)]`` without keys deleted meanwhile, and the bytes."""
    results = []
    total_bytes = 0
    for key, staged, location in answers:
        if staged is not None:
            _version, value, size = staged
        else:
            record = yield from ssd.mapping.read(table, key, location, epoch)
            if record is None:
                continue  # deleted while the read was in flight
            value, size = record.value, record.size
        results.append((key, value))
        total_bytes += size
    yield from ssd.link.device_to_host(total_bytes)
    return results, total_bytes


def get(ssd, namespace_id: int, key: int) -> Any:
    """``Get``: returns the value, or None when the key is absent."""
    result = yield from get_record(ssd, namespace_id, key)
    return result[0] if result is not None else None


def get_record(
    ssd, namespace_id: int, key: int, ctx: Optional[TraceContext] = None
) -> Any:
    """``Get`` returning ``(value, size)`` — what the caching layer uses.

    With ``ctx`` the Get's spans join the caller's trace; without one
    it opens its own ``kaml.get`` trace when the tracer is armed, and
    is untraced (no tracing call at all) when it is not.
    """
    namespace = ssd._namespace(namespace_id)
    namespace.require_resident()
    namespace.gets_counter.inc()
    owns_ctx = ctx is None
    if owns_ctx and ssd.tracer.enabled:
        ctx = ssd.tracer.request("kaml.get", namespace=namespace_id, key=key)
    get_span = dispatch_span = None
    if ctx is not None:
        get_span = ctx.root if owns_ctx else ctx.begin(
            "kaml.get", namespace=namespace_id, key=key
        )
        dispatch_span = ctx.begin("get.dispatch", parent=get_span)
    mapping = ssd.mapping
    started = ssd.env.now
    epoch = mapping.epoch
    # Journal bookkeeping: the finally block records one op-journal
    # row per Get, so the return sites below keep these truthful.
    outcome = "error"
    out_size = 0
    try:
        yield from ssd.link.command_overhead()
        yield from ssd.firmware.execute(
            ssd.costs.dispatch_us, ctx=ctx, parent=dispatch_span
        )
        staged, location, scanned = resolve(mapping, namespace, key, epoch)
        if ctx is not None:
            ctx.finish(dispatch_span)
            get_span.tags["source"] = (
                "staged" if staged is not None
                else "absent" if location is None else "flash"
            )
        if staged is not None:
            namespace.staged_hits_counter.inc()
            _version, value, size = staged
            yield from ssd.firmware.execute(ssd.costs.hash_probe_us)
            if value is TOMBSTONE:  # an acked Delete, not yet installed
                outcome = "absent"
                return None
        else:
            probe_span = ctx.begin(
                "get.index_probe", parent=get_span
            ) if ctx is not None else None
            ssd._index_probes_histogram.observe(scanned)
            yield from ssd.firmware.execute(scanned * ssd.costs.hash_probe_us)
            if ctx is not None:
                ctx.finish(probe_span)
            record = None
            if location is not None:
                record = yield from mapping.read(
                    namespace.index, key, location, epoch, ctx, get_span
                )
                if record is None and ctx is not None:
                    get_span.tags["source"] = "absent"
            if record is None:
                outcome = "absent"
                return None
            value, size = record.value, record.size
        if ctx is None:
            yield from ssd.link.device_to_host(size)
        else:
            with ctx.span("get.transfer", parent=get_span):
                yield from ssd.link.device_to_host(size)
        outcome = "ok"
        out_size = size
        return value, size
    finally:
        trace_id = 0
        if ctx is not None:
            trace_id = ctx.trace_id
            if owns_ctx:
                ctx.close()
            else:
                ctx.finish(get_span)
        op_id = 0
        oplog = ssd.oplog
        if oplog is not None:
            op_id = oplog.record(
                "get", namespace_id, key, out_size, started, ssd.env.now,
                outcome=outcome, trace_id=trace_id,
            )
        ssd.slo.record(
            "get", namespace_id, started, ssd.env.now, trace_id,
            op_id=op_id,
        )


def get_from_snapshot(ssd, snapshot_id: int, key: int) -> Any:
    """Read a key as of the snapshot instant: a Get against the snapshot's
    table, which has no staged overlay."""
    snapshot = ssd._snapshot(snapshot_id)
    ssd._namespace(snapshot.namespace_id).gets_counter.inc()
    epoch = ssd.mapping.epoch
    yield from ssd.link.command_overhead()
    yield from ssd.firmware.execute(ssd.costs.dispatch_us)
    _staged, location, scanned = resolve(ssd.mapping, snapshot, key, epoch)
    yield from ssd.firmware.execute(scanned * ssd.costs.hash_probe_us)
    if location is None:
        return None
    results, _nbytes = yield from _read_out(
        ssd, snapshot.index, [(key, None, location)], epoch
    )
    return results[0][1] if results else None


def scan(ssd, namespace_id: int, low: int, high: int) -> Any:
    """Range scan (extension): ``[(key, value)]`` for low <= key <= high.

    Requires the namespace to use the ``"sorted"`` index structure — the
    per-namespace flexibility Section IV-C motivates.  Staged (acknowledged
    but uninstalled) values and tombstones are merged in, so scans see
    every committed write and delete.
    """
    if low > high:
        raise KamlError(f"scan range is empty: [{low}, {high}]")
    namespace = ssd._namespace(namespace_id)
    namespace.require_resident()
    if not namespace.supports_range:
        raise KamlError(
            f"namespace {namespace_id} uses a hash index; create it with "
            f'index_structure="sorted" to enable Scan'
        )
    namespace.gets_counter.inc()
    started = ssd.env.now
    epoch = ssd.mapping.epoch
    yield from ssd.link.command_overhead()
    yield from ssd.firmware.execute(ssd.costs.dispatch_us)
    matched, answers = _resolve_all(ssd.mapping, namespace, epoch, low, high)
    table = namespace.index
    yield from ssd.firmware.execute(
        (table._probes() + matched) * ssd.costs.hash_probe_us
    )
    results, total_bytes = yield from _read_out(ssd, table, answers, epoch)
    oplog = ssd.oplog
    if oplog is not None:
        oplog.record(
            "scan", namespace_id, low, total_bytes, started, ssd.env.now,
            outcome="ok", key2=high,
        )
    return results


def list_keys(ssd, namespace_id: int) -> Any:
    """Management command: every readable key of a namespace, sorted.

    Used by the cluster serving tier to migrate a namespace between
    devices; a firmware-side index walk, not a flash scan, so it works for
    hash indexes that cannot serve ``Scan``.
    """
    namespace = ssd._namespace(namespace_id)
    namespace.require_resident()
    epoch = ssd.mapping.epoch
    yield from ssd.link.command_overhead()
    _matched, answers = _resolve_all(ssd.mapping, namespace, epoch)
    yield from ssd.firmware.execute(
        ssd.costs.dispatch_us + len(answers) * ssd.costs.hash_probe_us
    )
    return [key for key, _staged, _location in answers]
