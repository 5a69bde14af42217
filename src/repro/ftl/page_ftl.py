"""Conventional page-level FTL — the baseline device's firmware.

This is the "reference firmware" the paper compares KAML against
(Section V-A): a block interface whose FTL maps 4 KB logical pages to
physical flash locations through a flat array.  Its performance-relevant
behaviours, each of which shows up in Figures 5/6:

* **Reads lock LBA ranges** so data cannot migrate mid-command
  (Section V-B) — a fixed firmware cost ``Get`` does not pay.
* **Sub-4 KB writes are read-modify-write**: the firmware must fetch the
  rest of the logical page from flash before acknowledging, which is why
  baseline ``write`` latency/bandwidth collapses below 4 KB.
* **Aligned 4 KB writes complete in persistent DRAM**: the command returns
  after the data lands in the battery-backed buffer; flash programs drain
  in the background.
* **Mapping updates are array stores** — cheaper than KAML's hash inserts,
  the one place the baseline wins (4 KB Insert, Figure 5c).

Physical 8 KB pages hold two logical pages; full physical pages are striped
round-robin across all flash targets for parallelism.  GC relocates valid
logical pages and recycles blocks per target, with one spare block per
target reserved so GC itself can always make progress.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.config import ReproConfig
from repro.errors import ReproError
from repro.flash import FlashArray, PagePointer, WearOutError
from repro.ftl.gc_policy import GcCandidate, WearAwarePolicy
from repro.ftl.locktable import LockTable
from repro.ftl.mapping import DirectMap
from repro.obs import MetricsRegistry, Tracer
from repro.sim import Environment, Gate
from repro.ssd import FirmwarePool, NvramBuffer

LOGICAL_PAGE = 4096


class FtlError(ReproError):
    """Base class for FTL failures."""


class OutOfSpaceError(FtlError):
    """No free blocks remain and GC cannot reclaim any."""


@dataclass
class _Target:
    """Per flash-target (channel, chip) write state."""

    channel: int
    chip: int
    free: List[int] = field(default_factory=list)
    active: Optional[int] = None
    active_wp: int = 0                      # next page index to allocate
    full: List[int] = field(default_factory=list)
    gc_running: bool = False
    space_gate: Gate = None  # fired when GC frees a block


class PageFtl:
    """Page-mapped FTL over a :class:`~repro.flash.FlashArray`."""

    def __init__(
        self,
        env: Environment,
        config: ReproConfig,
        array: FlashArray,
        firmware: FirmwarePool,
        nvram: NvramBuffer,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.env = env
        self.config = config
        self.array = array
        self.firmware = firmware
        self.nvram = nvram
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        env.attach_metrics(self.metrics)
        array.attach_metrics(self.metrics)
        self.tracer = Tracer(clock=lambda: env.now)
        self.geometry = config.geometry
        self.params = config.block_ftl
        self.costs = config.firmware
        self.slots_per_page = self.geometry.page_size // LOGICAL_PAGE
        if self.slots_per_page < 1:
            raise FtlError("physical page smaller than a logical page")
        usable_pages = int(self.geometry.total_pages * (1.0 - self.params.overprovision))
        self.logical_pages = usable_pages * self.slots_per_page
        self.map = DirectMap(self.logical_pages)
        self.gc_policy = WearAwarePolicy()
        self.gc_policy.metrics = self.metrics
        self._page_locks = LockTable(env, name="ftl.lpn")
        self._page_locks.metrics = self.metrics
        self._targets: List[_Target] = []
        for channel, chip in array.iter_targets():
            target = _Target(channel=channel, chip=chip, space_gate=Gate(env))
            target.free = list(range(self.geometry.blocks_per_chip))
            self._targets.append(target)
        self._next_target = 0
        # Fill buffer: logical pages waiting to be grouped into a physical
        # page.  Entries are (lpn, data, version, nvram_handle).
        self._fill: List[Tuple[int, Any, int, int]] = []
        self._fill_generation = 0
        # Writes acknowledged but not yet on flash, newest version wins.
        self._inflight: Dict[int, Tuple[Any, int]] = {}
        # LPNs whose on-flash copy was already retired from the valid
        # counters at ack time (the first install must not re-retire it).
        self._stage_decremented: set = set()
        self._versions: Dict[int, int] = {}
        self._version_counter = 0
        # (channel, chip, block) -> count of valid logical pages.
        self._valid: Dict[Tuple[int, int, int], int] = {}

    # ------------------------------------------------------------------
    # Host-facing commands (timed; drive with ``yield from``)
    # ------------------------------------------------------------------

    def read(self, lpn: int, nbytes: int = LOGICAL_PAGE) -> Any:
        """Read up to one logical page; returns its current data."""
        self._check_lpn(lpn)
        if not 0 < nbytes <= LOGICAL_PAGE:
            raise FtlError(f"read size {nbytes} outside (0, {LOGICAL_PAGE}]")
        self.metrics.counter("ftl.host_reads").inc()
        started = self.env.now
        tracer = self.tracer
        ctx = tracer.request("ftl.read", lpn=lpn, bytes=nbytes) if tracer.enabled else None
        yield from self.firmware.execute(
            self.costs.dispatch_us + self.costs.lba_lock_us + self.costs.array_map_us
        )
        lock_wait = self.env.now
        yield from self._page_locks.acquire(lpn, owner="read")
        if self.env.now > lock_wait and ctx is not None:
            ctx.record_span("ftl.lba_lock_wait", start_us=lock_wait)
        self.metrics.observe("ftl.lba_lock_wait_us", self.env.now - lock_wait)
        try:
            inflight = self._inflight.get(lpn)
            if inflight is not None:
                return inflight[0]
            location = self.map.lookup(lpn)
            if location is None:
                return None
            pointer, slot = location
            read_span = ctx.begin(
                "ftl.flash_read", parent=ctx.root
            ) if ctx is not None else None
            try:
                data, oob = yield from self.array.read_page(
                    pointer, transfer_bytes=nbytes, ctx=ctx, parent=read_span,
                    priority=True,
                )
            finally:
                if ctx is not None:
                    ctx.finish(read_span)
            return data[slot]
        finally:
            self._page_locks.release(lpn)
            if ctx is not None:
                ctx.close()
            self.metrics.observe("ftl.read.us", self.env.now - started)

    def write(self, lpn: int, data: Any, nbytes: int = LOGICAL_PAGE) -> Any:
        """Write up to one logical page; returns once durable (in NVRAM).

        Sub-page writes perform read-modify-write against flash first
        (Section V-B): the command cannot complete before the firmware has
        the full logical page.
        """
        self._check_lpn(lpn)
        if not 0 < nbytes <= LOGICAL_PAGE:
            raise FtlError(f"write size {nbytes} outside (0, {LOGICAL_PAGE}]")
        self.metrics.counter("ftl.host_writes").inc()
        self.metrics.counter("ftl.host_write_bytes").inc(nbytes)
        started = self.env.now
        tracer = self.tracer
        ctx = tracer.request("ftl.write", lpn=lpn, bytes=nbytes) if tracer.enabled else None
        yield from self.firmware.execute(self.costs.dispatch_us + self.costs.lba_lock_us)
        if nbytes < LOGICAL_PAGE:
            if ctx is None:
                yield from self._read_for_merge(lpn)
            else:
                with ctx.span("ftl.rmw_read", parent=ctx.root):
                    yield from self._read_for_merge(lpn)
        reserve_start = self.env.now
        handle = self.nvram.try_reserve(LOGICAL_PAGE, payload=(lpn, data))
        if handle is None:
            handle = yield self.nvram.reserve(LOGICAL_PAGE, payload=(lpn, data))
        if self.env.now > reserve_start and ctx is not None:
            ctx.record_span("ftl.nvram_reserve", start_us=reserve_start)
        yield from self.firmware.execute(
            LOGICAL_PAGE / self.costs.nvram_copy_bytes_per_us
        )
        self._version_counter += 1
        version = self._version_counter
        if lpn not in self._inflight:
            # The old flash copy is dead the instant the new version is
            # durable in NVRAM: retire its bytes now so GC sees the space
            # as reclaimable before the background flush lands.
            old = self.map.lookup(lpn)
            if old is not None:
                old_key = (old[0].channel, old[0].chip, old[0].block)
                self._valid[old_key] = self._valid.get(old_key, 1) - 1
                self._stage_decremented.add(lpn)
        self._inflight[lpn] = (data, version)
        self._fill.append((lpn, data, version, handle))
        if len(self._fill) >= self.slots_per_page:
            entries = self._fill[: self.slots_per_page]
            self._fill = self._fill[self.slots_per_page:]
            self._fill_generation += 1
            self.env.process(self._flush(entries))
        elif len(self._fill) == 1:
            self.env.process(self._fill_timer(self._fill_generation))
        # The command is complete: data is durable in NVRAM.
        if ctx is not None:
            ctx.close()
        self.metrics.observe("ftl.write.us", self.env.now - started)

    def flush(self) -> Any:
        """Force a partially filled buffer to flash (used by tests/shutdown)."""
        if self._fill:
            entries, self._fill = self._fill, []
            self._fill_generation += 1
            yield from self._flush(entries)
        else:
            self.env.try_advance(0.0) or (yield self.env.timeout(0.0))

    def _fill_timer(self, generation: int) -> Any:
        """Flush a partial buffer that sat idle too long (Section IV-B)."""
        idle_us = self.params.buffer_flush_timeout_us
        self.env.try_advance(idle_us) or (yield self.env.timeout(idle_us))
        if self._fill_generation == generation and self._fill:
            entries, self._fill = self._fill, []
            self._fill_generation += 1
            yield from self._flush(entries)

    def precondition(self) -> None:
        """Instantly mark every LBA as mapped with synthetic data.

        Mirrors the paper's experimental setup ("we preconditioned the
        device by filling the SSD with random data multiple times"), so all
        sub-page writes take the read-modify-write path.  Zero simulated
        time: this is test/benchmark setup, not a measured operation.
        """
        per_target = {}
        lpn = 0
        while lpn < self.logical_pages:
            target = self._targets[self._next_target]
            self._next_target = (self._next_target + 1) % len(self._targets)
            block_index = per_target.get(id(target))
            if block_index is None or target.active_wp >= self.geometry.pages_per_block:
                if target.active is not None:
                    target.full.append(target.active)
                if not target.free:
                    break
                target.active = target.free.pop(0)
                target.active_wp = 0
                per_target[id(target)] = target.active
            pointer = PagePointer(
                target.channel, target.chip, target.active, target.active_wp
            )
            target.active_wp += 1
            block = self.array.block_at(pointer)
            slots = {}
            lpns = []
            for slot in range(self.slots_per_page):
                if lpn >= self.logical_pages:
                    break
                slots[slot] = ("precondition", lpn)
                lpns.append(lpn)
                self.map.store(lpn, (pointer, slot))
                key = (pointer.channel, pointer.chip, pointer.block)
                self._valid[key] = self._valid.get(key, 0) + 1
                lpn += 1
            block.program(pointer.page, slots, oob=lpns)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.logical_pages:
            raise FtlError(f"LBA {lpn} outside the logical space")

    def _read_for_merge(self, lpn: int) -> Any:
        """The flash read leg of read-modify-write."""
        inflight = self._inflight.get(lpn)
        if inflight is not None:
            return  # merge source already in DRAM
        location = self.map.lookup(lpn)
        if location is None:
            return  # unmapped: nothing to merge
        self.metrics.counter("ftl.rmw_reads").inc()
        pointer, _slot = location
        yield from self.array.read_page(pointer, transfer_bytes=LOGICAL_PAGE)

    def _flush(self, entries: List[Tuple[int, Any, int, int]]) -> Any:
        """Program one physical page's worth of buffered logical pages."""
        target = self._targets[self._next_target]
        self._next_target = (self._next_target + 1) % len(self._targets)
        pointer = yield from self._allocate_page(target, for_gc=False)
        slots = {index: data for index, (_l, data, _v, _h) in enumerate(entries)}
        lpns = [lpn for lpn, _d, _v, _h in entries]
        yield from self.array.program_page(pointer, slots, oob=lpns)
        self.metrics.counter("ftl.flash_programs").inc()
        self.metrics.counter("ftl.programmed_bytes").inc(self.geometry.page_size)
        for slot, (lpn, data, version, handle) in enumerate(entries):
            self._install_mapping(lpn, (pointer, slot), version)
            self.nvram.release(handle)

    def _install_mapping(self, lpn: int, location: Tuple[PagePointer, int], version: int) -> None:
        """Point ``lpn`` at its new flash location unless a newer write won."""
        if version < self._versions.get(lpn, 0):
            # A newer version is already (or will be) installed; this copy
            # is garbage on arrival.
            key = (location[0].channel, location[0].chip, location[0].block)
            self._valid.setdefault(key, 0)
            return
        self._versions[lpn] = version
        old = self.map.lookup(lpn)
        if old is not None and lpn not in self._stage_decremented:
            # ``old`` was installed by an earlier in-flight version of this
            # same burst; the pre-burst flash copy was retired at ack time.
            old_key = (old[0].channel, old[0].chip, old[0].block)
            self._valid[old_key] = self._valid.get(old_key, 1) - 1
        self._stage_decremented.discard(lpn)
        self.map.store(lpn, location)
        new_key = (location[0].channel, location[0].chip, location[0].block)
        self._valid[new_key] = self._valid.get(new_key, 0) + 1
        inflight = self._inflight.get(lpn)
        if inflight is not None and inflight[1] <= version:
            del self._inflight[lpn]

    def _allocate_page(self, target: _Target, for_gc: bool) -> Any:
        """Hand out the next programmable page on ``target``.

        Ordinary writes leave one spare free block so GC can always
        relocate; GC allocations may take the last block.
        """
        while True:
            if target.active is not None and target.active_wp < self.geometry.pages_per_block:
                pointer = PagePointer(
                    target.channel, target.chip, target.active, target.active_wp
                )
                target.active_wp += 1
                return pointer
            if target.active is not None:
                target.full.append(target.active)
                target.active = None
            reserve = 0 if for_gc else 1
            if len(target.free) > reserve:
                target.free.sort(
                    key=lambda b: self.array.chip(target.channel, target.chip)
                    .block(b).erase_count
                )
                target.active = target.free.pop(0)
                target.active_wp = 0
                self._maybe_start_gc(target)
                continue
            # No block to hand out: lean on GC.
            self._maybe_start_gc(target)
            if not target.gc_running:
                raise OutOfSpaceError(
                    f"target ({target.channel},{target.chip}) has no reclaimable space"
                )
            yield target.space_gate.wait()

    def _maybe_start_gc(self, target: _Target) -> None:
        if target.gc_running:
            return
        if len(target.free) >= self.params.gc_free_block_threshold:
            return
        if not target.full:
            return
        # Refuse to start a pass that cannot reclaim at least one physical
        # page of net space — a blocked writer would otherwise restart a
        # futile pass in a livelock, or GC would grind on ~full victims.
        if not any(
            self._gc_worthwhile(candidate) for candidate in self._gc_candidates(target)
        ):
            return
        target.gc_running = True
        self.env.process(self._gc_process(target))

    def _gc_worthwhile(self, candidate: GcCandidate) -> bool:
        """Cleaning must net at least one physical page of space."""
        block_bytes = self.geometry.pages_per_block * self.slots_per_page * LOGICAL_PAGE
        page_bytes = self.slots_per_page * LOGICAL_PAGE
        return candidate.valid_bytes <= block_bytes - page_bytes

    def _gc_candidates(self, target: _Target) -> List[GcCandidate]:
        chip = self.array.chip(target.channel, target.chip)
        candidates = []
        for block_index in target.full:
            key = (target.channel, target.chip, block_index)
            candidates.append(
                GcCandidate(
                    token=block_index,
                    valid_bytes=self._valid.get(key, 0) * LOGICAL_PAGE,
                    erase_count=chip.block(block_index).erase_count,
                )
            )
        return candidates

    def _gc_process(self, target: _Target) -> Any:
        """Reclaim blocks on one target until its free pool recovers."""
        ctx = self.tracer.request(
            "ftl.gc", channel=target.channel, chip=target.chip
        )
        erase_span = None
        try:
            while len(target.free) < self.params.gc_restore_target:
                candidates = [
                    c for c in self._gc_candidates(target) if self._gc_worthwhile(c)
                ]
                victim = self.gc_policy.choose(candidates)
                if victim is None:
                    break  # nothing worth reclaiming
                block_index = victim.token
                target.full.remove(block_index)
                if ctx is None:
                    yield from self._relocate_block(target, block_index)
                else:
                    with ctx.span("gc.relocate_block", parent=ctx.root, block=block_index):
                        yield from self._relocate_block(target, block_index)
                    erase_span = ctx.begin("gc.erase", parent=ctx.root, block=block_index)
                pointer = PagePointer(target.channel, target.chip, block_index, 0)
                try:
                    yield from self.array.erase_block(
                        pointer, ctx=ctx, parent=erase_span
                    )
                except WearOutError:
                    # Endurance exceeded: retire the block (capacity loss).
                    self.metrics.counter("ftl.retired_blocks").inc()
                    if ctx is not None:
                        erase_span.tags["retired"] = True
                        ctx.finish(erase_span)
                    self._valid.pop((target.channel, target.chip, block_index), None)
                    continue
                if ctx is not None:
                    ctx.finish(erase_span)
                self.metrics.counter("ftl.gc.erased_blocks").inc()
                self._valid.pop((target.channel, target.chip, block_index), None)
                target.free.append(block_index)
                target.space_gate.fire()
        finally:
            target.gc_running = False
            if ctx is not None:
                ctx.close()
            # Wake blocked writers so they re-check (and fail loudly if
            # nothing was reclaimed).
            target.space_gate.fire()

    def _relocate_block(self, target: _Target, block_index: int) -> Any:
        """Move every still-valid logical page out of ``block_index``.

        Valid pages are re-packed ``slots_per_page`` at a time so GC never
        consumes more physical pages than it frees.  Relocation installs
        mappings *without* bumping versions: a newer host write that is
        still in flight must keep winning over the relocated copy.
        """
        chip = self.array.chip(target.channel, target.chip)
        block = chip.block(block_index)
        batch: List[Tuple[int, Any]] = []  # (lpn, data) holding the lpn lock
        for page_index in range(block.programmed_pages):
            pointer = PagePointer(target.channel, target.chip, block_index, page_index)
            data, lpns = yield from self.array.read_page(pointer)
            if not lpns:
                continue
            for slot, lpn in enumerate(lpns):
                if self.map.lookup(lpn) != (pointer, slot):
                    continue  # stale copy
                if lpn in self._inflight:
                    continue  # superseded by an acked write; dead on flash
                yield from self._page_locks.acquire(lpn, owner="gc")
                if self.map.lookup(lpn) != (pointer, slot) or lpn in self._inflight:
                    self._page_locks.release(lpn)
                    continue
                batch.append((lpn, data[slot]))
                if len(batch) >= self.slots_per_page:
                    yield from self._write_gc_batch(target, batch)
                    batch = []
        if batch:
            yield from self._write_gc_batch(target, batch)

    def _write_gc_batch(self, target: _Target, batch: List[Tuple[int, Any]]) -> Any:
        """Program a batch of relocated logical pages; locks are held."""
        try:
            new_pointer = yield from self._allocate_page(target, for_gc=True)
            slots = {index: data for index, (_l, data) in enumerate(batch)}
            lpns = [lpn for lpn, _d in batch]
            yield from self.array.program_page(new_pointer, slots, oob=lpns)
            for slot, (lpn, _data) in enumerate(batch):
                self._install_relocation(lpn, (new_pointer, slot))
                self.metrics.counter("ftl.gc.relocated_pages").inc()
                self.metrics.counter("ftl.gc.relocated_bytes").inc(LOGICAL_PAGE)
        finally:
            for lpn, _data in batch:
                self._page_locks.release(lpn)

    def _install_relocation(self, lpn: int, location: Tuple[PagePointer, int]) -> None:
        """Repoint ``lpn`` after GC relocation without advancing its version."""
        if lpn in self._inflight:
            # A write superseded this lpn while its copy was mid-relocation:
            # the relocated copy is garbage, and the stale map entry is
            # harmless (reads consult the in-flight staging first and the
            # pending install will repoint the map).
            return
        old = self.map.lookup(lpn)
        if old is not None:
            old_key = (old[0].channel, old[0].chip, old[0].block)
            self._valid[old_key] = self._valid.get(old_key, 1) - 1
        self.map.store(lpn, location)
        new_key = (location[0].channel, location[0].chip, location[0].block)
        self._valid[new_key] = self._valid.get(new_key, 0) + 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def free_block_count(self) -> int:
        return sum(len(target.free) for target in self._targets)

    def valid_page_count(self) -> int:
        return sum(self._valid.values())
