"""Deterministic replay of kamltrace op journals + synthetic journals.

A journal captured by :mod:`repro.obs.oplog` is an ordered op stream
with issue/ack sim-times.  This module re-issues it against a fresh
stack in either of the two modes trace replayers conventionally offer:

open loop
    Honor the recorded inter-arrival gaps (scaled by ``speed``): ops are
    dispatched at the captured cadence whether or not earlier ops have
    completed, so queueing behavior under the original arrival process
    is reproduced.  Bursts that out-run the device pile up, exactly as
    the production client would have piled them up.

closed loop
    Ignore recorded timing; deal the ops round-robin across ``threads``
    lanes (preserving per-lane order) and let each lane issue its next
    op when the previous one completes.  This is the mode that replays
    *bit-identically*: with one lane the re-issued op stream equals the
    captured one, which is what the capture -> replay -> capture
    round-trip invariant in the determinism suite pins.

The synthetic generators at the bottom emit the same journal schema
without running a simulation — hot-key skew, diurnal load, and
flash-crowd spikes — so the replay engine doubles as a workload driver
for arrival patterns the YCSB/microbench generators cannot express.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.errors import ReproError
from repro.kaml import KamlSsd, NamespaceAttributes, PutItem
from repro.sim import Environment
from repro.workloads.micro import HOST_SOFTWARE_US, MicroResult

#: Value payload replayed for puts (the original values are not captured
#: — only sizes are — so replay writes tagged tuples of the right size).
_REPLAY_TAG = "replay"


class ReplayError(ReproError):
    """Malformed journal rows or an unsupported replay configuration."""


class ReplayIssue(NamedTuple):
    """One command to re-issue.

    ``items`` holds ``(namespace, key, size)`` triples — one for
    get/delete, the whole atomic batch for put, and ``(namespace, low,
    high)`` for scan.
    """

    op: str            # "get" | "put" | "delete" | "scan"
    issue_us: float    # captured issue time (open-loop cadence)
    items: Tuple[Tuple[int, int, int], ...]


def journal_to_issues(
    rows: Iterable[Dict[str, Any]], layer: str = "ssd"
) -> List[ReplayIssue]:
    """Parse journal rows (one layer's view) into replayable issues.

    Multi-record put batches are regrouped by their shared ``batch``
    head id (consecutive rows; ``batch=0`` on a head row means "my own
    op_id").  Rows from other layers are skipped: a journal records the
    store and device layers side by side, and replaying both would
    double-issue every cache miss.
    """
    issues: List[ReplayIssue] = []
    pending_batch = 0
    pending_items: List[Tuple[int, int, int]] = []
    pending_issue_us = 0.0

    def flush_pending() -> None:
        nonlocal pending_batch, pending_items
        if pending_items:
            issues.append(
                ReplayIssue("put", pending_issue_us, tuple(pending_items))
            )
        pending_batch = 0
        pending_items = []

    for row in rows:
        if row.get("layer", "ssd") != layer:
            continue
        op = row.get("op")
        try:
            namespace = int(row["ns"])
            key = int(row["key_hash"])
        except (KeyError, TypeError, ValueError):
            raise ReplayError(f"row is missing ns/key_hash: {row!r}") from None
        issue_us = float(row.get("issue_us") or 0.0)
        size = int(row.get("size") or 0)
        if op == "put":
            batch = int(row.get("batch") or 0) or int(row.get("op_id") or 0)
            if pending_items and batch and batch == pending_batch:
                pending_items.append((namespace, key, size))
                continue
            flush_pending()
            pending_batch = batch
            pending_items = [(namespace, key, size)]
            pending_issue_us = issue_us
            continue
        flush_pending()
        if op == "scan":
            high = int(row.get("key2", key))
            issues.append(ReplayIssue("scan", issue_us, ((namespace, key, high),)))
        elif op in ("get", "delete"):
            issues.append(ReplayIssue(op, issue_us, ((namespace, key, size),)))
        else:
            raise ReplayError(f"unknown journal op {op!r}: {row!r}")
    flush_pending()
    return issues


def journal_namespaces(
    rows: Iterable[Dict[str, Any]], layer: str = "ssd"
) -> Dict[int, Dict[str, int]]:
    """Per-namespace sizing facts: distinct keys and whether scans occur."""
    stats: Dict[int, Dict[str, Any]] = {}
    for row in rows:
        if row.get("layer", "ssd") != layer:
            continue
        namespace = row.get("ns")
        if namespace is None:
            continue
        entry = stats.setdefault(int(namespace), {"keys": set(), "scans": 0})
        if row.get("op") == "scan":
            entry["scans"] += 1
        else:
            entry["keys"].add(int(row.get("key_hash") or 0))
    return {
        namespace: {"keys": len(entry["keys"]), "scans": entry["scans"]}
        for namespace, entry in stats.items()
    }


def prepare_namespaces(
    env: Environment,
    ssd: KamlSsd,
    rows: Iterable[Dict[str, Any]],
    layer: str = "ssd",
) -> Dict[int, int]:
    """Create fresh namespaces sized for the journal; returns old->new ids.

    Namespaces that served scans get a ``"sorted"`` index (Scan requires
    it); everything else gets the calibrated bucket index sized 1.5x the
    journal's distinct-key count.
    """
    rows = list(rows)
    mapping: Dict[int, int] = {}

    for original_id, facts in sorted(journal_namespaces(rows, layer=layer).items()):
        attributes = NamespaceAttributes(
            expected_keys=max(64, int(facts["keys"] * 1.5)),
            index_structure="sorted" if facts["scans"] else "bucket",
        )
        process = env.process(ssd.create_namespace(attributes))
        env.run_until(process)
        mapping[original_id] = process.value
    return mapping


# ---------------------------------------------------------------------------
# Issue dispatch against either stack layer
# ---------------------------------------------------------------------------

def _issue_on_ssd(ssd: KamlSsd, issue: ReplayIssue, namespace_map: Dict[int, int]):
    if issue.op == "put":
        items = [
            PutItem(namespace_map[ns], key, (_REPLAY_TAG, key), max(1, size))
            for ns, key, size in issue.items
        ]
        yield from ssd.put(items)
        return sum(item.size for item in items)
    ns, key, third = issue.items[0]
    mapped = namespace_map[ns]
    if issue.op == "get":
        result = yield from ssd.get_record(mapped, key)
        return result[1] if result is not None else 0
    if issue.op == "delete":
        yield from ssd.delete(mapped, key)
        return 0
    if issue.op == "scan":
        results = yield from ssd.scan(mapped, key, third)
        return len(results)
    raise ReplayError(f"unsupported ssd op {issue.op!r}")


def _issue_on_store(store, issue: ReplayIssue, namespace_map: Dict[int, int]):
    if issue.op == "put":
        moved = 0
        for ns, key, size in issue.items:
            yield from store.put(
                namespace_map[ns], key, (_REPLAY_TAG, key), max(1, size)
            )
            moved += max(1, size)
        return moved
    ns, key, third = issue.items[0]
    mapped = namespace_map[ns]
    if issue.op == "get":
        yield from store.get(mapped, key)
        return 0
    if issue.op == "delete":
        yield from store.ssd.delete(mapped, key)
        return 0
    if issue.op == "scan":
        results = yield from store.scan(mapped, key, third)
        return len(results)
    raise ReplayError(f"unsupported store op {issue.op!r}")


def replay_journal(
    env: Environment,
    target: Any,
    issues: List[ReplayIssue],
    namespace_map: Optional[Dict[int, int]] = None,
    mode: str = "closed",
    threads: int = 1,
    speed: float = 1.0,
    host_overhead_us: float = HOST_SOFTWARE_US,
) -> MicroResult:
    """Re-issue a parsed journal against ``target`` (KamlSsd or KamlStore).

    ``namespace_map`` maps journal namespace ids to ids that exist on
    the target (see :func:`prepare_namespaces`); identity by default.
    Closed mode deals issues round-robin over ``threads`` lanes; open
    mode honors the captured inter-arrival gaps divided by ``speed``
    (2.0 replays twice as fast) and ``threads`` is ignored.
    """
    if mode not in ("closed", "open"):
        raise ReplayError(f"unknown replay mode {mode!r}")
    if threads < 1:
        raise ReplayError("threads must be >= 1")
    if speed <= 0:
        raise ReplayError("speed must be positive")
    if namespace_map is None:
        namespace_map = {
            ns: ns for issue in issues for ns, _k, _s in issue.items
        }
    is_store = hasattr(target, "buffer")
    dispatch = _issue_on_store if is_store else _issue_on_ssd
    tracer = target.tracer
    result = MicroResult()
    start = env.now
    ctx = tracer.request("replay.run", mode=mode, issues=len(issues))

    def one(issue: ReplayIssue):
        op_start = env.now
        moved = yield from dispatch(target, issue, namespace_map)
        result.ops += 1
        result.bytes_moved += moved if issue.op != "scan" else 0
        result.latencies_us.append(env.now - op_start)

    if mode == "closed":
        lanes: List[List[ReplayIssue]] = [[] for _ in range(threads)]
        for index, issue in enumerate(issues):
            lanes[index % threads].append(issue)

        def worker(lane: List[ReplayIssue]):
            for issue in lane:
                env.try_advance(host_overhead_us) or (yield env.timeout(host_overhead_us))
                yield from one(issue)

        procs = [env.process(worker(lane)) for lane in lanes if lane]
    else:
        in_flight: List[Any] = []

        def dispatcher():
            previous: Optional[float] = None
            for issue in issues:
                if previous is not None:
                    gap = max(0.0, issue.issue_us - previous) / speed
                    if gap > 0:
                        env.try_advance(gap) or (yield env.timeout(gap))
                previous = issue.issue_us
                in_flight.append(env.process(one(issue)))

        feeder = env.process(dispatcher())
        env.run_until(feeder)
        procs = in_flight

    finish: List[float] = []
    if procs:
        done = env.all_of(procs)
        done.add_callback(lambda _e: finish.append(env.now))
        env.run_until(done)
    result.elapsed_us = (finish[0] if finish else env.now) - start
    if ctx is not None:
        ctx.close()
    return result


# ---------------------------------------------------------------------------
# Synthetic journal generators (same schema, no simulation)
# ---------------------------------------------------------------------------

def _synthetic_row(
    op_id: int, op: str, namespace: int, key: int, size: int, issue_us: float,
) -> Dict[str, Any]:
    row: Dict[str, Any] = {
        "op_id": op_id,
        "op": op,
        "layer": "ssd",
        "ns": namespace,
        "key_hash": key,
        "size": size,
        "issue_us": round(issue_us, 3),
        "ack_us": None,       # synthetic: the op never ran
        "outcome": None,
        "trace_id": 0,
    }
    if op == "put":
        row["batch"] = 0      # single-record batches (head id = own id)
    return row


def _emit(rows: List[Dict[str, Any]], rng: random.Random, namespace: int,
          key: int, read_fraction: float, value_size: int, now_us: float) -> None:
    op = "get" if rng.random() < read_fraction else "put"
    size = value_size if op == "put" else 0
    rows.append(_synthetic_row(len(rows) + 1, op, namespace, key, size, now_us))


def synth_hotkey(
    operations: int,
    key_space: int,
    hot_fraction: float = 0.9,
    hot_keys: int = 8,
    read_fraction: float = 0.9,
    value_size: int = 1024,
    mean_gap_us: float = 50.0,
    namespace: int = 1,
    seed: int = 1,
) -> List[Dict[str, Any]]:
    """Hot-key skew: ``hot_fraction`` of ops land on ``hot_keys`` keys.

    Sharper than a zipfian — this is the "one tenant hammers one row"
    pattern that surfaces lock and NVRAM-staging contention.  Arrivals
    are Poisson at ``mean_gap_us``.
    """
    if not 0 < hot_keys <= key_space:
        raise ReplayError("hot_keys must be in (0, key_space]")
    rng = random.Random(seed)
    rows: List[Dict[str, Any]] = []
    now_us = 0.0
    for _ in range(operations):
        now_us += rng.expovariate(1.0 / mean_gap_us)
        if rng.random() < hot_fraction:
            key = rng.randrange(hot_keys)
        else:
            key = hot_keys + rng.randrange(max(1, key_space - hot_keys))
        _emit(rows, rng, namespace, key, read_fraction, value_size, now_us)
    return rows


def synth_diurnal(
    operations: int,
    key_space: int,
    period_us: float = 200_000.0,
    peak_gap_us: float = 20.0,
    trough_gap_us: float = 400.0,
    read_fraction: float = 0.5,
    value_size: int = 1024,
    namespace: int = 1,
    seed: int = 1,
) -> List[Dict[str, Any]]:
    """Diurnal load: arrival rate swings sinusoidally over ``period_us``.

    The mean gap interpolates between ``peak_gap_us`` (busy hour) and
    ``trough_gap_us`` (idle) following ``0.5*(1-cos)`` activity, so the
    journal alternates saturation and idle drain — the pattern that
    exposes flush-timer and GC-scheduling behavior steady load hides.
    """
    if peak_gap_us <= 0 or trough_gap_us <= 0 or period_us <= 0:
        raise ReplayError("diurnal gaps and period must be positive")
    rng = random.Random(seed)
    rows: List[Dict[str, Any]] = []
    now_us = 0.0
    for _ in range(operations):
        activity = 0.5 * (1.0 - math.cos(2.0 * math.pi * now_us / period_us))
        mean_gap = trough_gap_us + (peak_gap_us - trough_gap_us) * activity
        now_us += rng.expovariate(1.0 / mean_gap)
        key = rng.randrange(key_space)
        _emit(rows, rng, namespace, key, read_fraction, value_size, now_us)
    return rows


def synth_flashcrowd(
    operations: int,
    key_space: int,
    base_gap_us: float = 200.0,
    crowd_at_us: Optional[float] = None,
    crowd_duration_us: float = 5_000.0,
    crowd_gap_us: float = 5.0,
    crowd_keys: int = 4,
    read_fraction: float = 0.5,
    crowd_read_fraction: float = 0.95,
    value_size: int = 1024,
    namespace: int = 1,
    seed: int = 1,
) -> List[Dict[str, Any]]:
    """Flash crowd: steady background traffic with one sharp spike.

    At ``crowd_at_us`` (default: 40 % into the steady-state span) the
    arrival gap collapses to ``crowd_gap_us`` and traffic concentrates,
    read-heavy, on ``crowd_keys`` keys for ``crowd_duration_us`` — the
    cache-stampede shape that stresses open-loop replay (closed-loop
    replay would flatten the spike into the device's service rate).
    """
    if crowd_keys <= 0 or crowd_keys > key_space:
        raise ReplayError("crowd_keys must be in (0, key_space]")
    if crowd_at_us is None:
        crowd_at_us = 0.4 * operations * base_gap_us
    rng = random.Random(seed)
    rows: List[Dict[str, Any]] = []
    now_us = 0.0
    crowd_end_us = crowd_at_us + crowd_duration_us
    for _ in range(operations):
        # The arrival gap follows the regime the clock is in now; the
        # op's regime (key choice, mix) follows the time it lands at, so
        # every op stamped inside the window uses crowd keys.
        gap = (
            crowd_gap_us if crowd_at_us <= now_us < crowd_end_us
            else base_gap_us
        )
        now_us += rng.expovariate(1.0 / gap)
        in_crowd = crowd_at_us <= now_us < crowd_end_us
        if in_crowd:
            key = rng.randrange(crowd_keys)
            _emit(rows, rng, namespace, key, crowd_read_fraction,
                  value_size, now_us)
        else:
            key = rng.randrange(key_space)
            _emit(rows, rng, namespace, key, read_fraction, value_size, now_us)
    return rows


SYNTH_GENERATORS = {
    "synth-hotkey": synth_hotkey,
    "synth-diurnal": synth_diurnal,
    "synth-flashcrowd": synth_flashcrowd,
}
