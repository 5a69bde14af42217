"""Opt-in runtime invariant sanitizers (``KAML_SANITIZE=1``).

The static checks in :mod:`repro.analysis_tools` prove properties about
the *source*; the sanitizers here check the *running* system.  They are
disabled by default (zero overhead beyond one branch per call site) and
enabled by setting ``KAML_SANITIZE=1`` in the environment — tier-1 CI
runs the whole test suite once with them armed.

Checks (rule ids referenced by :class:`~repro.errors.InvariantError`):

* ``SAN-CHUNK`` — a page assembly's chunk runs must be gap-free,
  non-overlapping, in-bounds, and round-trip through the OOB bitmap
  (``encode_bitmap``/``decode_bitmap``) unchanged.
* ``SAN-OOB`` — after a GC relocation, the destination page's OOB
  bitmap must describe the relocated record's chunk run, and the
  mapping table must point at the new location.
* ``SAN-VALID`` — per-block valid-byte accounting must never go
  negative.
* ``SAN-PIN`` — block read-pin accounting: no unpin without a pin.
* ``SAN-NVRAM`` — no NVRAM reservations may survive device close.
* ``SAN-LOCK`` — the observed runtime lock-acquisition order must stay
  acyclic; observed edges can be cross-checked against the static
  lock-order graph computed by ``kamllint``.
"""

from __future__ import annotations

import os
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import InvariantError

_enabled: Optional[bool] = None


def enabled() -> bool:
    """True when sanitizers are armed (``KAML_SANITIZE=1``)."""
    global _enabled
    if _enabled is None:
        _enabled = os.environ.get("KAML_SANITIZE", "") not in ("", "0")
    return _enabled


def set_enabled(value: Optional[bool]) -> None:
    """Force sanitizers on/off (tests); ``None`` re-reads the environment."""
    global _enabled
    _enabled = value


# ----------------------------------------------------------------------
# Chunk-run / OOB-bitmap consistency
# ----------------------------------------------------------------------


def check_page_assembly(assembly: Any) -> None:
    """SAN-CHUNK: validate a :class:`~repro.kaml.record.PageAssembly`.

    Runs must pack back-to-back from chunk 0 without gaps or overlap,
    stay within the page, and survive the bitmap round-trip — the exact
    property GC relies on to re-parse pages from OOB alone (Figure 4).
    """
    from repro.kaml.record import decode_bitmap

    runs = assembly.chunk_runs()
    cursor = 0
    for start, nchunks in runs:
        if nchunks < 1:
            raise InvariantError("SAN-CHUNK", f"empty chunk run at {start}")
        if start != cursor:
            kind = "overlaps" if start < cursor else "leaves a gap before"
            raise InvariantError(
                "SAN-CHUNK",
                f"run at chunk {start} {kind} chunk {cursor}",
            )
        cursor = start + nchunks
    if cursor > assembly.chunks_per_page:
        raise InvariantError(
            "SAN-CHUNK",
            f"runs use {cursor} chunks; page has {assembly.chunks_per_page}",
        )
    decoded = decode_bitmap(assembly.bitmap(), assembly.chunks_per_page)
    if decoded != runs:
        raise InvariantError(
            "SAN-CHUNK",
            f"bitmap round-trip mismatch: runs {runs} decoded as {decoded}",
        )


# ----------------------------------------------------------------------
# GC relocation: mapping table vs on-flash OOB state
# ----------------------------------------------------------------------


def _check_run_on_flash(
    mapping: Any, namespace_id: int, key: int, location: Any, when: str
) -> None:
    """SAN-OOB: the page's OOB bitmap must describe the run a table names."""
    from repro.kaml.record import decode_bitmap

    oob = mapping.array.block_at(location.page).peek_oob(location.page.page)
    runs = decode_bitmap(oob or 0, mapping.geometry.chunks_per_page)
    if (location.chunk, location.nchunks) not in runs:
        raise InvariantError(
            "SAN-OOB",
            f"{when}: ns={namespace_id} key={key} references run "
            f"({location.chunk}, {location.nchunks}) absent from page "
            f"{location.page} OOB (runs={runs})",
        )


def check_relocation(mapping: Any, record: Any, old: Any, new: Any) -> None:
    """SAN-OOB / SAN-VALID: post-conditions of a successful relocation."""
    _check_run_on_flash(mapping, record.namespace_id, record.key, new, "GC relocation")
    if not mapping.is_valid(record, new):
        raise InvariantError(
            "SAN-OOB",
            f"no mapping table or delete marker points at relocated "
            f"ns={record.namespace_id} key={record.key} after GC install",
        )
    for block_key in (old.block_key, new.block_key):
        check_valid_bytes(mapping, block_key)


def check_valid_bytes(mapping: Any, block_key: Tuple[int, int, int]) -> None:
    """SAN-VALID: a block's valid-byte count must stay non-negative."""
    count = mapping.valid_bytes(block_key)
    if count < 0:
        raise InvariantError(
            "SAN-VALID", f"block {block_key} has {count} valid bytes"
        )


def check_recovery(mapping: Any) -> None:
    """SAN-OOB / SAN-VALID: post-conditions of scan-based recovery.

    Every mapping-table entry and tombstone must reference a chunk run
    that the destination page's OOB bitmap actually describes, and the
    valid-byte accounting must cover exactly those references.  Called
    by :meth:`~repro.kaml.ssd.KamlSsd.recover` after a full power loss.
    """
    for namespace_id, key, location in mapping.references():
        _check_run_on_flash(mapping, namespace_id, key, location, "recovered mapping")
    check_accounting(mapping)


def check_accounting(mapping: Any) -> None:
    """SAN-VALID: each block's valid-byte accounting must equal exactly
    the bytes the live references cover — nothing lost, nothing
    double-counted, never negative."""
    referenced: Dict[Tuple[int, int, int], int] = {}
    for _namespace_id, _key, location in mapping.references():
        referenced[location.block_key] = referenced.get(location.block_key, 0) + (
            location.nchunks * mapping.geometry.chunk_size
        )
    valid_bytes = mapping.valid_bytes_by_block()
    for block_key in sorted(set(referenced) | set(valid_bytes)):
        accounted = valid_bytes.get(block_key, 0)
        expected = referenced.get(block_key, 0)
        if accounted < 0:
            raise InvariantError(
                "SAN-VALID", f"block {block_key} has {accounted} valid bytes"
            )
        if accounted != expected:
            raise InvariantError(
                "SAN-VALID",
                f"block {block_key} accounts {accounted} valid bytes; "
                f"live references cover {expected}",
            )


# ----------------------------------------------------------------------
# Pin and NVRAM accounting
# ----------------------------------------------------------------------


def check_unpin(pins: Dict[Tuple[int, int, int], int], block_key: Tuple[int, int, int]) -> None:
    """SAN-PIN: every unpin must pair with an earlier pin."""
    if pins.get(block_key, 0) <= 0:
        raise InvariantError("SAN-PIN", f"unpin of unpinned block {block_key}")


def check_close(ssd: Any) -> None:
    """SAN-NVRAM / SAN-PIN: nothing may leak past device close."""
    if len(ssd.nvram):
        handles = [handle for handle, _ in ssd.nvram.live_payloads()]
        raise InvariantError(
            "SAN-NVRAM",
            f"{len(handles)} NVRAM reservation(s) leaked at close: "
            f"handles {handles} ({ssd.nvram.used_bytes} B still pinned)",
        )
    leaked = ssd.mapping.pinned_blocks()
    if leaked:
        raise InvariantError(
            "SAN-PIN", f"block read-pins leaked at close: {leaked}"
        )


# ----------------------------------------------------------------------
# Runtime lock-order recording
# ----------------------------------------------------------------------


class LockOrderRecorder:
    """Records the order in which sim processes nest lock acquisitions.

    Each :class:`~repro.sim.sync.SimLock` acquisition by a process that
    already holds other locks adds directed edges ``held -> wanted``.
    An edge that closes a cycle is a latent deadlock: two interleavings
    exist in which the involved processes block each other forever, even
    if this particular run got lucky.  Cycles raise ``SAN-LOCK``
    immediately.

    Edges are recorded at two granularities: per lock *instance*
    (``log0.program``) for cycle detection, and per static *site*
    (``KamlLog._program_lock``) so :meth:`check_static` can cross-check
    the graph kamllint computed from the source.
    """

    def __init__(self) -> None:
        #: process -> list of (instance_name, static_site) currently held
        self._held: Dict[Any, List[Tuple[str, str]]] = {}
        self._edges: Dict[str, Set[str]] = {}
        self._site_edges: Set[Tuple[str, str]] = set()

    # -- event hooks (called by SimLock) --------------------------------

    def on_acquire(self, process: Any, name: str, site: str) -> None:
        """A process asked for a lock; edges come from what it holds."""
        for held_name, held_site in self._held.get(process, ()):  # noqa: B007
            if held_name == name:
                continue  # re-acquire of the same instance
            self._site_edges.add((held_site, site))
            self._add_edge(held_name, name)

    def on_granted(self, process: Any, name: str, site: str) -> None:
        self._held.setdefault(process, []).append((name, site))

    def on_release(self, process: Any, name: str) -> None:
        held = self._held.get(process)
        if not held:
            return
        for position in range(len(held) - 1, -1, -1):
            if held[position][0] == name:
                del held[position]
                break
        if not held:
            del self._held[process]

    # -- graph ----------------------------------------------------------

    def _add_edge(self, source: str, target: str) -> None:
        targets = self._edges.setdefault(source, set())
        if target in targets:
            return
        targets.add(target)
        cycle = self._find_cycle(target, source)
        if cycle is not None:
            raise InvariantError(
                "SAN-LOCK",
                "lock-order cycle observed at runtime: "
                + " -> ".join([source] + cycle),
            )

    def _find_cycle(self, start: str, target: str) -> Optional[List[str]]:
        """Path from ``start`` back to ``target`` along recorded edges."""
        stack: List[Tuple[str, List[str]]] = [(start, [start])]
        seen: Set[str] = set()
        while stack:
            node, path = stack.pop()
            if node == target:
                return path
            if node in seen:
                continue
            seen.add(node)
            for succ in sorted(self._edges.get(node, ())):
                stack.append((succ, path + [succ]))
        return None

    def edges(self) -> List[Tuple[str, str]]:
        """Observed instance-level edges, deterministically ordered."""
        return sorted(
            (source, target)
            for source, targets in self._edges.items()
            for target in targets
        )

    def site_edges(self) -> List[Tuple[str, str]]:
        """Observed static-site edges, deterministically ordered."""
        return sorted(self._site_edges)

    def check_static(self, static_edges: Set[Tuple[str, str]]) -> List[Tuple[str, str]]:
        """Observed site edges absent from the static lock-order graph.

        The static graph from ``kamllint --lock-graph`` over-approximates
        same-function nesting; an observed edge it misses means a lock
        order exists only through a dynamic path the linter cannot see —
        exactly what should be reviewed (and allowlisted) by hand.
        """
        closure = _transitive_closure(static_edges)
        return [edge for edge in self.site_edges() if edge not in closure]


def _transitive_closure(edges: Set[Tuple[str, str]]) -> FrozenSet[Tuple[str, str]]:
    adjacency: Dict[str, Set[str]] = {}
    for source, target in edges:
        adjacency.setdefault(source, set()).add(target)
    closed: Set[Tuple[str, str]] = set(edges)
    changed = True
    while changed:
        changed = False
        for source, target in list(closed):
            for onward in adjacency.get(target, ()):  # noqa: B007
                if (source, onward) not in closed:
                    closed.add((source, onward))
                    changed = True
    return frozenset(closed)


def recorder_for(env: Any) -> LockOrderRecorder:
    """The per-environment lock-order recorder (created on first use).

    Scoping the recorder to the :class:`~repro.sim.Environment` keeps
    independent simulated stacks (e.g. parallel test cases) from
    polluting each other's graphs.
    """
    recorder = getattr(env, "_lock_order_recorder", None)
    if recorder is None:
        recorder = LockOrderRecorder()
        env._lock_order_recorder = recorder
    return recorder
