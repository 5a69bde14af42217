"""The mapping: one owner for "which copy of a key is live" (Sections IV-B,
IV-C, IV-E).

The mapping table is the only thing that names a record's physical
location, so every fact that follows from it lives here: the namespace
and snapshot tables, delete markers, the version that orders installs,
the staged overlay ``Get`` reads acknowledged values from, and the
per-block and per-page valid bytes, read pins and doomed blocks that
decide what GC must read and move and when a block may be erased.  One
invariant ties them: a block's (and a page's) valid bytes equal the bytes
of the records some live table references in it
(:meth:`Mapping.references`).  Commands use ``commit`` / ``install`` /
``read``, and the read resolver (:mod:`repro.kaml.read`) the staged
overlay; each :class:`~repro.kaml.log.KamlLog` gets the mapping as its GC
``hooks`` and stays ignorant of namespaces.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro import sanitize
from repro.config import ReproConfig
from repro.errors import PowerLossError
from repro.flash import PagePointer
from repro.kaml.namespace import Namespace
from repro.kaml.record import TOMBSTONE, Record, RecordLocation
from repro.kaml.snapshot import Snapshot
from repro.obs import MetricsRegistry, TraceContext, lazy_instrument
from repro.sim import Environment, Gate

BlockKey = Tuple[int, int, int]
EntryKey = Tuple[int, int]  # (namespace_id, key)


class Mapping:
    """Every mapping table of one device, and the erase safety they imply."""

    _relocation_chases_counter = lazy_instrument("counter", "kaml.get.relocation_chases")
    _pin_wait_us_histogram = lazy_instrument("histogram", "kaml.gc.pin_wait_us")

    def __init__(
        self, env: Environment, config: ReproConfig,
        array: Any, firmware: Any, metrics: MetricsRegistry,
    ):
        self.env = env
        self.geometry = config.geometry
        self.array = array
        self.firmware = firmware
        self.metrics = metrics
        self._probe_us = config.firmware.hash_probe_us
        self.namespaces: Dict[int, Namespace] = {}
        self.snapshots: Dict[int, Snapshot] = {}
        #: NVRAM write cache: entry -> (version, value, size) for
        #: acknowledged Puts whose mapping install has not landed yet.  A
        #: Delete stages its ``TOMBSTONE``, which reads as absent.
        self._staged: Dict[EntryKey, Tuple[int, Any, int]] = {}
        #: Last installed (or deleted) version per key: orders out-of-order
        #: phase-3 installs from concurrent Puts.
        self._installed_versions: Dict[EntryKey, int] = {}
        self._version_counter = 0
        #: On-flash delete markers: entry -> location of the newest
        #: tombstone.  A tombstone stays valid (GC keeps it) while it is
        #: the newest version of its key, so a rescan after a later power
        #: loss cannot resurrect the deleted value.
        self._tombstones: Dict[EntryKey, RecordLocation] = {}
        self._valid_bytes: Dict[BlockKey, int] = defaultdict(int)
        self._page_valid_bytes: Dict[PagePointer, int] = defaultdict(int)
        #: Blocks a log's GC has claimed as erase victims but not yet
        #: erased.  A late phase-3 install whose record sits in one of
        #: these was already judged garbage by the survivor scan; it must
        #: re-append rather than publish a mapping the erase will sever.
        self._doomed_blocks: Set[BlockKey] = set()
        self._pins: Dict[BlockKey, int] = defaultdict(int)
        self._pin_gate = Gate(env, name="kaml.pins")
        #: The device's one power epoch, bumped by :meth:`clear`.  A command
        #: or process that began before a power cut (a ghost) compares the
        #: epoch it began in before it touches a table, and ends instead.
        self.epoch = 0

    # ------------------------------------------------------------------
    # What commands see
    # ------------------------------------------------------------------

    @property
    def staged_count(self) -> int:
        return len(self._staged)

    def commit(self, batch: Any) -> List[Record]:
        """Logically commit a pinned batch; returns its versioned records.

        Concurrent Puts to one key are ordered by the versions assigned
        here, and the values become readable from the staging area.  The
        versions are stamped into the pinned payload (an NVRAM write):
        replay after a crash must reproduce exactly this commit order,
        not the order the batches reached NVRAM — so a batch that already
        carries versions keeps them, and stages nothing.
        """
        if batch.versions is None:
            batch.versions = []
            for item in batch.items:
                self._version_counter += 1
                batch.versions.append(self._version_counter)
                if item.namespace_id in self.namespaces:
                    self._staged[(item.namespace_id, item.key)] = (
                        self._version_counter, item.value, item.size,
                    )
        else:
            self.resume_versions(max(batch.versions))
        return [Record(*item, seq=v) for item, v in zip(batch.items, batch.versions)]

    def resume_versions(self, floor: int) -> None:
        """New commits outrank every version recovery saw, stale or not."""
        self._version_counter = max(self._version_counter, floor)

    def install(
        self, record: Record, location: Optional[RecordLocation]
    ) -> Optional[RecordLocation]:
        """Make ``record``, now at ``location``, the newest copy of its key.

        The one repoint rule, for values and delete markers alike:
        version gate, repoint the table, retire the old copy's bytes and
        the marker it outranks, clear the staged value.  Installs arrive
        out of order because concurrent Puts do not serialize on entry
        locks; the version assigned at phase 1 is the commit order, and a
        superseded install's flash record is never counted valid, so GC
        discards it for free.  Returns the location the key pointed at
        before, if this install took it over.
        """
        namespace = self.namespaces.get(record.namespace_id)
        if namespace is None or namespace.index is None:
            return None  # namespace deleted mid-flight; the record is garbage
        key = record.key
        entry_key = (record.namespace_id, key)
        if record.seq < self._installed_versions.get(entry_key, 0):
            return None
        self._installed_versions[entry_key] = record.seq
        tombstone = record.value is TOMBSTONE
        old, _ = namespace.index.lookup(key)
        if not tombstone:
            namespace.index.insert(key, location)
        elif old is not None:
            namespace.index.delete(key)
        if old is not None:
            self._adjust_valid(old, -1)
        if location is not None:
            self._adjust_valid(location, +1)
            # The new record outranks any marker for this key: that marker
            # is no longer the newest version, so it becomes garbage.
            marker = self._tombstones.pop(entry_key, None)
            if marker is not None:
                self._adjust_valid(marker, -1)
            if tombstone:
                self._tombstones[entry_key] = location
        staged = self._staged.get(entry_key)
        if staged is not None and staged[0] <= record.seq:
            del self._staged[entry_key]
        return old

    def drop_namespace(self, namespace_id: int) -> None:
        """Forget a namespace: its records become GC food."""
        namespace = self.namespaces.pop(namespace_id)
        if namespace.index is not None:
            for location in namespace.index.values():
                self._adjust_valid(location, -1)
        for table in (self._staged, self._installed_versions):
            for entry_key in [k for k in table if k[0] == namespace_id]:
                del table[entry_key]
        for entry_key in [k for k in self._tombstones if k[0] == namespace_id]:
            self._adjust_valid(self._tombstones.pop(entry_key), -1)

    def add_snapshot(self, snapshot: Snapshot) -> None:
        """Register a frozen table; what it references stays valid."""
        for location in snapshot.index.values():
            self._adjust_valid(location, +1)
        self.snapshots[snapshot.snapshot_id] = snapshot

    def drop_snapshot(self, snapshot_id: int) -> None:
        """Its exclusive record versions become garbage."""
        for location in self.snapshots.pop(snapshot_id).index.values():
            self._adjust_valid(location, -1)

    def read(
        self, table: Any, key: int, location: RecordLocation, epoch: int,
        ctx: Optional[TraceContext] = None, parent: Any = None,
    ) -> Any:
        """Pin-protected flash read of ``key``'s record, chasing GC.

        The optimistic index probe yields (firmware time) between the
        lookup and the flash read; GC can relocate the record and erase
        the old block inside that window.  Pin first, then re-check the
        table in the same sim instant: once the pin is visible, the
        pre-erase barrier holds the erase off, so a confirmed location
        stays readable.  Returns the record, or None if the key vanished
        (deleted) while probing.  A read that began in an earlier ``epoch``
        ends in ``PowerLossError`` before it touches the table, and one cut
        during its flash read leaves the cleared pins alone.
        """
        while True:
            if self.epoch != epoch:
                raise PowerLossError(f"power lost under a read of key {key}")
            block_key = location.block_key
            self._pin(block_key)
            current, scanned = table.lookup(key)
            if current == location:
                break
            self._unpin(block_key)
            if current is None:
                return None
            self._relocation_chases_counter.inc()
            location = current
            yield from self.firmware.execute(scanned * self._probe_us)
        read_span = ctx.begin(
            "get.flash_read", parent=parent,
            channel=block_key[0], chip=block_key[1], block=block_key[2],
        ) if ctx is not None else None
        try:
            data, _oob = yield from self.array.read_page(
                location.page,
                transfer_bytes=location.nchunks * self.geometry.chunk_size,
                ctx=ctx, parent=read_span, priority=True,
            )
        finally:
            if self.epoch == epoch:
                self._unpin(block_key)
            if ctx is not None:
                ctx.finish(read_span)
        return data[location.chunk]

    def erase_mark(self, page: PagePointer) -> int:
        """Erase generation of the block holding ``page``.

        A block cannot complete an erase at the same sim instant one of
        its pages finished programming (cleaning requires reads and
        relocation appends, which take time), so a mark captured in the
        same event cascade as the append's completion is a stable
        snapshot; every record on the page shares it.  Read straight off
        the array's lists: ``page`` names a programmed page, so the
        bounds checks of ``FlashArray.chip`` would only cost calls.
        """
        return self.array.channels[page.channel].chips[page.chip].blocks[page.block].erase_count

    def severed(self, location: RecordLocation, mark: int) -> bool:
        """Did GC claim the block since ``mark``?  A moved erase generation
        means the erase already happened; a doomed block means the
        survivor scan has passed with the erase merely in flight."""
        page = location.page
        return self.erase_mark(page) != mark or page[:3] in self._doomed_blocks

    def superseded(self, record: Record) -> bool:
        """Has a newer write or delete of the key already been installed?"""
        return record.seq < self._installed_versions.get((record.namespace_id, record.key), 0)

    # ------------------------------------------------------------------
    # Power cuts and inspection
    # ------------------------------------------------------------------

    def clear(self) -> None:
        """Full power cut: every table is gone until flash is rescanned."""
        self.epoch += 1
        self._staged.clear()  # replay rebuilds the installs
        self._pins.clear()
        # A GC pass parked at its pre-erase barrier wakes now, in the cut's
        # instant, and ends before recovery can start another pass.
        self._pin_gate.fire()
        self._doomed_blocks.clear()  # the pending erases died with the power
        self._installed_versions.clear()
        self._valid_bytes.clear()
        self._page_valid_bytes.clear()
        self._tombstones.clear()
        self._version_counter = 0
        self.snapshots.clear()
        for namespace in self.namespaces.values():
            namespace.index = None
            namespace.resident = False

    def references(self) -> Iterator[Tuple[int, int, RecordLocation]]:
        """``(namespace_id, key, location)`` of every record a live table
        names: current tables, snapshots and delete markers.  Valid-byte
        accounting must cover exactly these."""
        for namespace in self.namespaces.values():
            if namespace.index is not None:
                for key, location in namespace.index.items():
                    yield namespace.namespace_id, key, location
        for snapshot in self.snapshots.values():
            for key, location in snapshot.index.items():
                yield snapshot.namespace_id, key, location
        for (namespace_id, key), location in sorted(self._tombstones.items()):
            yield namespace_id, key, location

    def valid_bytes_by_block(self) -> Dict[BlockKey, int]:
        return dict(self._valid_bytes)

    def valid_bytes_by_page(self) -> Dict[PagePointer, int]:
        return dict(self._page_valid_bytes)

    def valid_bytes_total(self) -> int:
        return sum(self._valid_bytes.values())

    def pinned_blocks(self) -> Dict[BlockKey, int]:
        """Blocks some reader holds right now, with their pin counts."""
        return dict(self._pins)

    # ------------------------------------------------------------------
    # Hooks the logs use (GC and erase safety)
    # ------------------------------------------------------------------

    def valid_bytes(self, block_key: BlockKey) -> int:
        return self._valid_bytes.get(block_key, 0)

    def page_live(self, page: PagePointer) -> bool:
        """Does a live table still reference a record on this page?"""
        return self._page_valid_bytes.get(page, 0) > 0

    def is_valid(self, record: Record, location: RecordLocation) -> bool:
        if record.value is TOMBSTONE:
            return self._tombstones.get((record.namespace_id, record.key)) == location
        for table in self._tables(record.namespace_id):
            if table.lookup(record.key)[0] == location:
                return True
        return False

    def relocate(self, record: Record, old: RecordLocation, new: RecordLocation) -> bool:
        """Compare-and-swap a GC-relocated record's mapping entries.

        Every referencing table (current index and snapshots) is repointed
        so the old copy really becomes garbage.
        """
        moves = 0
        if record.value is TOMBSTONE:
            entry_key = (record.namespace_id, record.key)
            if self._tombstones.get(entry_key) == old:
                self._tombstones[entry_key] = new
                moves = 1
        else:
            for table in self._tables(record.namespace_id):
                if table.lookup(record.key)[0] == old:
                    table.insert(record.key, new)
                    moves += 1
        if moves:
            self._adjust_valid(old, -moves)
            self._adjust_valid(new, +moves)
            if sanitize.enabled():
                # SAN-OOB/SAN-VALID: the mapping tables, the destination
                # page's OOB bitmap, and valid-byte accounting must agree
                # after every relocation (the Figure 4 invariant).
                sanitize.check_relocation(self, record, old, new)
        return moves > 0

    def block_doomed(self, block_key: BlockKey) -> None:
        """GC claimed this block as an erase victim (pre-erase)."""
        self._doomed_blocks.add(block_key)

    def block_erased(self, block_key: BlockKey) -> None:
        self._valid_bytes.pop(block_key, None)
        for page in range(self.geometry.pages_per_block):
            self._page_valid_bytes.pop(block_key + (page,), None)
        self._doomed_blocks.discard(block_key)

    def wait_unpinned(self, block_key: BlockKey) -> Any:
        """Block until no reader holds the block (pre-erase barrier)."""
        started = self.env.now
        while self._pins.get(block_key, 0) > 0:
            yield self._pin_gate.wait()
        self._pin_wait_us_histogram.observe(self.env.now - started)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _tables(self, namespace_id: int) -> List[Any]:
        """Every live table that can reference this namespace's records:
        the current index plus any snapshots."""
        namespace = self.namespaces.get(namespace_id)
        tables = [] if namespace is None or namespace.index is None else [namespace.index]
        if self.snapshots:
            tables += [s.index for s in self.snapshots.values() if s.namespace_id == namespace_id]
        return tables

    def _adjust_valid(self, location: RecordLocation, sign: int) -> None:
        nbytes = sign * location.nchunks * self.geometry.chunk_size
        page = location.page
        self._valid_bytes[page[:3]] += nbytes
        self._page_valid_bytes[page] += nbytes

    def _pin(self, block_key: BlockKey) -> None:
        self._pins[block_key] += 1

    def _unpin(self, block_key: BlockKey) -> None:
        if sanitize.enabled():
            sanitize.check_unpin(self._pins, block_key)
        if self._pins[block_key] <= 1:
            del self._pins[block_key]
        else:
            self._pins[block_key] -= 1
        self._pin_gate.fire()
