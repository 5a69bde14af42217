"""kamltrace: the opt-in op journal (workload capture).

The flight recorder keeps *spans* — why one command was slow.  The op
journal keeps the *op stream itself*: one row per store-level command
(type, namespace, key fingerprint, value size, issue/ack sim-times,
outcome, trace id), which is exactly what the replay engine
(:mod:`repro.workloads.replay`) needs to re-issue a captured workload
against a fresh stack, and what ties an SLO breach back to the concrete
op that breached.

The journal follows the same pay-as-you-go contract as tracing: a stack
starts with :data:`NULL_OPLOG` (one attribute check per command, no
rows, no sim events) and a harness opts in via
``KamlSsd.enable_oplog()``.  Rows stream to a JSONL file (gzipped when
the path ends in ``.gz``) or accumulate in memory; either way the row
count is bounded by ``capacity`` and overflow is *counted*, never
silent — a truncated capture reports how much it lost.

Schema (one JSON object per line, sorted keys)::

    {"op_id": 17, "op": "put", "layer": "ssd", "ns": 1, "key_hash": 42,
     "size": 512, "issue_us": 103.5, "ack_us": 151.0, "outcome": "ok",
     "trace_id": 9, "batch": 16}

``op_id`` is 1-based and monotonically increasing; ``batch`` (puts
only) is the op id of the first record of the same atomic ``Put`` batch
so replay can regroup multi-record batches.  ``key_hash`` is a stable
64-bit key fingerprint; the simulator's integer keys map to themselves,
which is what makes capture -> replay -> capture a bit-identical round
trip (a real deployment would salt-hash here and lose invertibility,
not fidelity of the access pattern).  A header line carrying
``{"kamltrace": 1}`` starts every file; :func:`load_journal` skips it.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ReproError

#: Bump when a row's meaning changes; readers refuse newer majors.
SCHEMA_VERSION = 1

_MASK64 = (1 << 64) - 1


def key_fingerprint(key: Any) -> int:
    """Stable 64-bit fingerprint of a key.

    Integer keys (the simulator's native key type) map to themselves so
    a captured journal replays the exact original keys; anything else is
    hashed through blake2b — stable across processes, unlike ``hash()``.
    """
    if isinstance(key, int):
        return key & _MASK64
    digest = hashlib.blake2b(repr(key).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _open_for_write(path: str):
    if str(path).endswith(".gz"):
        return gzip.open(path, "wt", encoding="utf-8")
    return open(path, "w", encoding="utf-8")


def _open_for_read(path: str):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


class OpJournalError(ReproError):
    """Bad journal configuration or an unreadable/incompatible file."""


class OpJournal:
    """Bounded, optionally streaming capture of the op stream.

    With ``path=None`` rows accumulate in :attr:`rows` (handy for tests
    and for the in-process capture->replay round trip); with a path they
    stream to JSONL (``.gz`` compresses) and :attr:`rows` stays empty.
    Either mode stops recording at ``capacity`` rows and counts the
    overflow in :attr:`dropped` — the journal never grows unbounded and
    never lies about completeness.
    """

    #: Checked by hot paths before building a row (NULL_OPLOG is False).
    enabled = True

    def __init__(self, path: Optional[str] = None, capacity: int = 1 << 20):
        if capacity <= 0:
            raise OpJournalError("op journal capacity must be positive")
        self.path = path
        self.capacity = capacity
        self.recorded = 0
        self.dropped = 0
        self.rows: List[Dict[str, Any]] = []
        self._handle = None
        if path is not None:
            self._handle = _open_for_write(path)
            self._handle.write(
                json.dumps({"kamltrace": SCHEMA_VERSION}, sort_keys=True) + "\n"
            )

    # -- the hot path ----------------------------------------------------

    def record(
        self,
        op: str,
        namespace: Optional[int],
        key: Any,
        size: int,
        issue_us: float,
        ack_us: float,
        outcome: str = "ok",
        trace_id: int = 0,
        layer: str = "ssd",
        **extra: Any,
    ) -> int:
        """Append one row; returns its op id (0 when dropped at capacity)."""
        if self.recorded >= self.capacity:
            self.dropped += 1
            return 0
        self.recorded += 1
        op_id = self.recorded
        row: Dict[str, Any] = {
            "op_id": op_id,
            "op": op,
            "layer": layer,
            "ns": namespace,
            "key_hash": key_fingerprint(key),
            "size": size,
            "issue_us": issue_us,
            "ack_us": ack_us,
            "outcome": outcome,
            "trace_id": trace_id,
        }
        if extra:
            row.update(extra)
        if self._handle is not None:
            self._handle.write(json.dumps(row, sort_keys=True) + "\n")
        else:
            self.rows.append(row)
        return op_id

    def record_batch(
        self,
        op: str,
        entries: Sequence[Tuple[Optional[int], Any, int]],
        issue_us: float,
        ack_us: float,
        outcome: str = "ok",
        trace_id: int = 0,
        layer: str = "ssd",
    ) -> int:
        """One row per ``(namespace, key, size)`` entry of an atomic batch.

        Every row carries ``batch`` = the first row's op id, so replay
        can regroup the batch; returns that head id (0 if the whole
        batch fell past capacity).  A batch straddling the capacity
        boundary records a head and counts the tail as dropped — the
        drop accounting, not the head, is what says the capture is
        incomplete.
        """
        head = 0
        for namespace, key, size in entries:
            op_id = self.record(
                op, namespace, key, size, issue_us, ack_us,
                outcome=outcome, trace_id=trace_id, layer=layer,
                batch=head,
            )
            if head == 0 and op_id:
                # The head row itself carries batch=0 (its id was not
                # known when the row was written); readers normalize
                # batch=0 to the row's own op_id, so the group key is
                # identical in streaming and in-memory modes.
                head = op_id
        return head

    # -- lifecycle / reporting -------------------------------------------

    def close(self) -> None:
        """Flush and close the stream (idempotent; no-op in memory mode)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def counts(self) -> Dict[str, int]:
        return {
            "recorded": self.recorded,
            "dropped": self.dropped,
            "capacity": self.capacity,
        }

    def __enter__(self) -> "OpJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
        return None


class NullOpJournal:
    """Inert journal: the default on every stack (capture off).

    Shares the shape of :class:`OpJournal` so choke points never branch
    beyond one ``enabled`` check; ``record`` returning 0 is the same
    "no op id" value a dropped row yields.
    """

    enabled = False
    recorded = 0
    dropped = 0
    capacity = 0
    path = None
    rows: List[Dict[str, Any]] = []

    def record(self, *args: Any, **kwargs: Any) -> int:
        return 0

    def record_batch(self, *args: Any, **kwargs: Any) -> int:
        return 0

    def close(self) -> None:
        return None

    def counts(self) -> Dict[str, int]:
        return {"recorded": 0, "dropped": 0, "capacity": 0}


#: Shared inert journal — assigned to every stack at construction.
NULL_OPLOG = NullOpJournal()


# ---------------------------------------------------------------------------
# Reading captured journals
# ---------------------------------------------------------------------------

def parse_journal(lines: Iterable[str]) -> List[Dict[str, Any]]:
    """Rows from journal text lines; validates the header if present."""
    rows: List[Dict[str, Any]] = []
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except ValueError as exc:
            raise OpJournalError(f"line {line_number}: not JSON: {exc}") from None
        if not isinstance(row, dict):
            raise OpJournalError(f"line {line_number}: expected a JSON object")
        if "kamltrace" in row:
            version = int(row["kamltrace"])
            if version > SCHEMA_VERSION:
                raise OpJournalError(
                    f"journal schema v{version} is newer than this reader "
                    f"(v{SCHEMA_VERSION})"
                )
            continue
        rows.append(row)
    return rows


def load_journal(path: str) -> List[Dict[str, Any]]:
    """All op rows of a journal file (plain or ``.gz``), header stripped."""
    with _open_for_read(path) as handle:
        return parse_journal(handle)


def write_journal(path: str, rows: Iterable[Dict[str, Any]]) -> int:
    """Write pre-built rows (e.g. a synthetic journal) as a journal file.

    Returns the number of rows written.  Used by the synthetic workload
    generators, which emit the capture schema without running a
    simulation.
    """
    count = 0
    with _open_for_write(path) as handle:
        handle.write(
            json.dumps({"kamltrace": SCHEMA_VERSION}, sort_keys=True) + "\n"
        )
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
            count += 1
    return count


def mix_summary(rows: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Op/layer mix of a journal — the capture report's one-glance view."""
    ops: Dict[str, int] = {}
    layers: Dict[str, int] = {}
    namespaces = set()
    keys = set()
    total_bytes = 0
    first_issue: Optional[float] = None
    last_ack = 0.0
    for row in rows:
        ops[row["op"]] = ops.get(row["op"], 0) + 1
        layer = row.get("layer", "ssd")
        layers[layer] = layers.get(layer, 0) + 1
        namespaces.add(row.get("ns"))
        keys.add(row.get("key_hash"))
        total_bytes += int(row.get("size") or 0)
        issue = row.get("issue_us")
        if issue is not None:
            first_issue = issue if first_issue is None else min(first_issue, issue)
        # Synthetic journals carry ack_us=None (the op never ran); their
        # span is bounded by issue times instead.
        ack = row.get("ack_us")
        if ack is None:
            ack = issue
        if ack is not None:
            last_ack = max(last_ack, ack)
    return {
        "ops": ops,
        "layers": layers,
        "namespaces": sorted(namespaces - {None}),
        "working_set": len(keys),
        "bytes": total_bytes,
        "span_us": (last_ack - first_issue) if first_issue is not None else 0.0,
    }
