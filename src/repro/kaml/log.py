"""The in-storage append logs (Sections IV-B, IV-E).

Each log owns one flash target (a chip behind a channel) and manages its
blocks as an append-only stream of record-packed pages.  A page fills in a
non-volatile buffer (records are already durable in NVRAM when they arrive
here) and is programmed when full or once nothing has joined it for the
flush timeout.  GC
runs per log: victims are chosen by low erase count and low valid bytes,
pages are parsed via the OOB bitmap, and still-valid records are
re-appended through a dedicated GC write point.

The log knows nothing about namespaces; validity checks and index updates
go through the six hooks :class:`~repro.kaml.mapping.Mapping` provides.
After a power cut it rebuilds its own block lists from its flash target
(:meth:`KamlLog.rescan`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import sanitize
from repro.config import ReproConfig
from repro.errors import ReproError
from repro.flash import (
    EraseFailure,
    FlashArray,
    PagePointer,
    ProgramFailure,
    ReadError,
    WearOutError,
)
from repro.ftl.gc_policy import GcCandidate, WearAwarePolicy
from repro.kaml.record import (
    PageAssembly,
    Record,
    RecordLocation,
    RecordTooLargeError,
    decode_bitmap,
)
from repro.obs import MetricsRegistry, TraceContext, Tracer
from repro.sim import Environment, Event, Gate, SimLock


class LogSpaceError(ReproError):
    """A log ran out of blocks and GC could not reclaim any."""


@dataclass
class _WritePoint:
    """An open page being assembled (user or GC stream)."""

    assembly: PageAssembly
    waiters: List[Tuple[int, Record, Event]] = field(default_factory=list)
    generation: int = 0
    #: Pending flush-timer event (bootstrap or armed timeout); defused
    #: when the page flushes early so no ghost fires at the deadline.
    timer: Optional[Event] = None
    #: Sim time of the newest append; the flush timer counts from here.
    last_append: float = 0.0


class KamlLog:
    """One append log on one flash target."""

    #: Bounded retries for transient media faults before giving up.
    MAX_PROGRAM_RETRIES = 4
    MAX_ERASE_RETRIES = 2

    def __init__(
        self,
        env: Environment,
        config: ReproConfig,
        array: FlashArray,
        log_id: int,
        channel: int,
        chip: int,
        hooks: Any,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Any = None,
        crash_point: Callable[[str], None] = lambda name: None,
    ):
        self.env = env
        self.config = config
        self.array = array
        self.log_id = log_id
        self.channel = channel
        self.chip = chip
        self.hooks = hooks
        self.geometry = config.geometry
        self.params = config.kaml
        self.metrics = metrics if metrics is not None else MetricsRegistry(
            clock=lambda: env.now
        )
        if tracer is None:
            tracer = Tracer(clock=lambda: env.now)
            tracer.enabled = False
        self.tracer = tracer
        #: Announces a named crash point to the device's fault injector.
        self._crash_point = crash_point
        #: Monotonic id for GC passes; tags every span of one pass.
        self._gc_generation = 0
        self.gc_policy = WearAwarePolicy()
        self.gc_policy.metrics = self.metrics
        self.free: List[int] = list(range(self.geometry.blocks_per_chip))
        self.full: List[int] = []
        self._active: Dict[bool, Optional[int]] = {False: None, True: None}  # for_gc -> block
        self._active_wp: Dict[bool, int] = {False: 0, True: 0}
        self._points: Dict[bool, _WritePoint] = {
            False: _WritePoint(self._new_assembly()),
            True: _WritePoint(self._new_assembly()),
        }
        self._program_lock = SimLock(
            env, name=f"log{log_id}.program", static_site="KamlLog._program_lock"
        )
        # Hot-path instruments, resolved once instead of per append/flush
        # (registry lookups sort+hash the label set on every call).
        metrics = self.metrics
        self._wasted_chunks_counter = metrics.counter(
            "kaml.log.wasted_chunks", log=log_id
        )
        self._timer_flushes_counter = metrics.counter(
            "kaml.log.timer_flushes", log=log_id
        )
        self._programmed_pages_counter = metrics.counter(
            "kaml.log.programmed_pages", log=log_id
        )
        self._programmed_bytes_counter = metrics.counter(
            "kaml.log.programmed_bytes", log=log_id
        )
        self._program_us_histogram = metrics.histogram(
            "kaml.log.program_us", log=log_id
        )
        #: (namespace_id, stream) -> (records counter, bytes counter)
        self._append_counters: Dict[Tuple[int, str], Tuple[Any, Any]] = {}
        self.space_gate = Gate(env, name=f"log{log_id}.space")
        self.gc_running = False
        #: Bumped by crash recovery; in-flight processes from before the
        #: crash notice the change and die without touching state.
        self.epoch = 0

    def _new_assembly(self) -> PageAssembly:
        return PageAssembly(self.geometry.chunks_per_page, self.geometry.chunk_size)

    @property
    def block_capacity_bytes(self) -> int:
        return self.geometry.pages_per_block * self.geometry.page_size

    def block_key(self, block_index: int) -> Tuple[int, int, int]:
        return (self.channel, self.chip, block_index)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def append(
        self, record: Record, ctx: Optional[TraceContext] = None, parent=None
    ) -> Any:
        """Append one record; returns its :class:`RecordLocation` once the
        containing page is programmed (Put phase 2, Section IV-D)."""
        started = self.env.now
        event = self.stage(record, for_gc=False)
        location = yield event
        if ctx is not None:
            ctx.record_span(
                "log.append",
                start_us=started,
                parent=parent,
                log=self.log_id,
                namespace=record.namespace_id,
                key=record.key,
            )
        return location

    def stage(self, record: Record, for_gc: bool) -> Event:
        """Synchronously place a record into the open page; returns the
        event that fires with its location after the program completes."""
        point = self._points[for_gc]
        nchunks = record.chunks(self.geometry.chunk_size)
        if nchunks > self.geometry.chunks_per_page:
            raise RecordTooLargeError(
                f"record of {record.size} B exceeds one page"
            )
        if not point.assembly.fits(record):
            self._wasted_chunks_counter.inc(point.assembly.free_chunks)
            self._launch_flush(for_gc)
            point = self._points[for_gc]
        was_empty = point.assembly.is_empty
        start = point.assembly.add(record)
        point.last_append = self.env.now
        event = self.env.event()
        point.waiters.append((start, record, event))
        stream = "gc" if for_gc else "host"
        counters = self._append_counters.get((record.namespace_id, stream))
        if counters is None:
            counters = (
                self.metrics.counter(
                    "kaml.log.appended_records",
                    log=self.log_id, namespace=record.namespace_id, stream=stream,
                ),
                self.metrics.counter(
                    "kaml.log.append_bytes",
                    log=self.log_id, namespace=record.namespace_id, stream=stream,
                ),
            )
            self._append_counters[(record.namespace_id, stream)] = counters
        counters[0].inc()
        counters[1].inc(record.size)
        if point.assembly.free_chunks == 0:
            self._launch_flush(for_gc)
        elif was_empty:
            self._start_flush_timer(for_gc, point)
        return event

    def _launch_flush(self, for_gc: bool) -> None:
        point = self._points[for_gc]
        if point.assembly.is_empty:
            return
        if point.timer is not None:
            # The page is flushing before its deadline: kill the timer
            # instead of letting it fire as a ghost wakeup.
            point.timer.defuse()
            point.timer = None
        assembly, waiters = point.assembly, point.waiters
        self._points[for_gc] = _WritePoint(self._new_assembly(), generation=point.generation + 1)
        # The epoch is captured *here*, not at the flush body's first
        # step: a power cut can land between ``env.process()`` and the
        # first resume, and a flush that captured the post-cut epoch
        # would happily program a page of pre-crash records into the
        # recovered log.
        self.env.process(self._flush_process(assembly, waiters, for_gc, self.epoch))

    def _start_flush_timer(self, for_gc: bool, point: _WritePoint) -> None:
        """Pad and program a part-filled page once it goes quiet
        (Section IV-B): ``flush_timeout_us`` after its *last* append.

        The records are durable in NVRAM already, so only a page nobody
        is feeding any more is worth padding.  Quiescence is checked
        lazily — an append only stamps ``last_append``; a timer that fires
        early re-arms for the remainder — so an open page has one pending
        timer whose firings are at least (timeout - feed gap) apart,
        however many records join.  Two-step schedule (a bootstrap event
        at *now*, the timeout at bootstrap dispatch); the timer is
        defused when the page flushes early, so a full page leaves no
        ghost wakeup in the heap.
        """
        generation = point.generation
        hold_us = self.params.flush_timeout_us

        def arm(_bootstrap: Event) -> None:
            if self._points[for_gc] is not point or point.generation != generation:
                return  # flushed while the bootstrap was in flight
            wait(hold_us)

        def wait(delay_us: float) -> None:
            point.timer = self.env.timeout(delay_us)
            point.timer.add_callback(fire)

        def fire(_timeout: Event) -> None:
            current = self._points[for_gc]
            if current.generation == generation and not current.assembly.is_empty:
                remaining_us = current.last_append + hold_us - self.env.now
                if remaining_us > 0:
                    wait(remaining_us)  # fed since it was armed: not quiet yet
                    return
                # Timer flushes pad out the page: the free tail is wasted.
                self._wasted_chunks_counter.inc(current.assembly.free_chunks)
                self._timer_flushes_counter.inc()
                self._launch_flush(for_gc)

        bootstrap = Event(self.env)
        bootstrap._triggered = True
        bootstrap.add_callback(arm)
        point.timer = bootstrap
        self.env._schedule(bootstrap, 0.0)

    def _flush_process(
        self, assembly: PageAssembly, waiters, for_gc: bool, epoch: int
    ) -> Any:
        if self.epoch != epoch:
            return  # launched an instant before a cut; the page is gone
        if not self._program_lock.try_acquire(owner=("flush", for_gc)):
            yield self._program_lock.acquire(owner=("flush", for_gc))
        held = True
        try:
            if sanitize.enabled():
                # SAN-CHUNK: runs must be packed, in-bounds, and bitmap
                # round-trippable before they become on-flash truth.
                sanitize.check_page_assembly(assembly)
            data = {}
            start_cursor = 0
            for record in assembly.records:
                data[start_cursor] = record
                start_cursor += record.chunks(self.geometry.chunk_size)
            attempts = 0
            while True:
                if self.epoch != epoch:
                    return  # ghost flush from before a crash
                pointer = self._try_allocate(for_gc)
                if pointer is None:
                    if not self.gc_running:
                        error = LogSpaceError(
                            f"log {self.log_id} is full and nothing is reclaimable"
                        )
                        for _start, _record, event in waiters:
                            event.fail(error)
                        return
                    self._program_lock.release()
                    held = False
                    yield self.space_gate.wait()
                    if not self._program_lock.try_acquire(owner=("flush-retry", for_gc)):
                        yield self._program_lock.acquire(owner=("flush-retry", for_gc))
                    held = True
                    continue
                self._crash_point("log.mid_flush")
                program_start = self.env.now
                # Device-side telemetry trace: one root per page program,
                # so the profiler can separate flash-program cost (bus
                # transfer, engine wait, t_PROG) from the request-side
                # log.append wait that covers it.
                tracer = self.tracer
                flush_ctx = tracer.request(
                    "kaml.flash_program",
                    log=self.log_id,
                    stream="gc" if for_gc else "host",
                    records=len(assembly.records),
                ) if tracer.enabled else None
                try:
                    yield from self.array.program_page(
                        pointer, data, oob=assembly.bitmap(), ctx=flush_ctx,
                        parent=flush_ctx.root if flush_ctx is not None else None,
                    )
                except ProgramFailure:
                    if flush_ctx is not None:
                        flush_ctx.root.tags["failed"] = True
                        flush_ctx.close()
                    # Transient media fault: the attempted page is burned
                    # (its write pointer advanced past garbage); remap the
                    # whole assembly to the next allocatable page.
                    attempts += 1
                    self.metrics.counter(
                        "kaml.log.program_failures", log=self.log_id
                    ).inc()
                    if tracer.enabled:
                        tracer.request(
                            "kaml.flash_fault",
                            kind="program",
                            log=self.log_id,
                            block=pointer.block,
                            page=pointer.page,
                            attempt=attempts,
                        ).close()
                    if self.epoch != epoch:
                        return
                    if attempts >= self.MAX_PROGRAM_RETRIES:
                        error = LogSpaceError(
                            f"log {self.log_id} page program failed "
                            f"{attempts} times; giving up"
                        )
                        for _start, _record, event in waiters:
                            event.fail(error)
                        return
                    self.metrics.counter(
                        "kaml.log.program_retries", log=self.log_id
                    ).inc()
                    continue
                if flush_ctx is not None:
                    flush_ctx.close()
                break
            self._programmed_pages_counter.inc()
            self._programmed_bytes_counter.inc(self.geometry.page_size)
            self._program_us_histogram.observe(self.env.now - program_start)
        finally:
            if held:
                self._program_lock.release()
        if self.epoch != epoch:
            # A crash hit while this page was programming: the page is a
            # torn write the mapping tables never point at.
            return
        for start, record, event in waiters:
            event.succeed(
                RecordLocation(
                    page=pointer,
                    chunk=start,
                    nchunks=record.chunks(self.geometry.chunk_size),
                )
            )

    # ------------------------------------------------------------------
    # Block allocation
    # ------------------------------------------------------------------

    def _try_allocate(self, for_gc: bool) -> Optional[PagePointer]:
        """Next programmable page for a stream, or None if blocks must be
        reclaimed first.  Never yields; called under the program lock."""
        active = self._active[for_gc]
        if active is not None and self._active_wp[for_gc] < self.geometry.pages_per_block:
            page_index = self._active_wp[for_gc]
            self._active_wp[for_gc] += 1
            return PagePointer(self.channel, self.chip, active, page_index)
        if active is not None:
            self.full.append(active)
            self._active[for_gc] = None
        reserve = 0 if for_gc else 1
        if len(self.free) > reserve:
            self.free.sort(key=lambda b: self._chip().block(b).erase_count)
            block = self.free.pop(0)
            self._active[for_gc] = block
            self._active_wp[for_gc] = 0
            self._maybe_start_gc()
            return self._try_allocate(for_gc)
        self._maybe_start_gc()
        return None

    def _chip(self):
        return self.array.chip(self.channel, self.chip)

    # ------------------------------------------------------------------
    # Garbage collection (Section IV-E)
    # ------------------------------------------------------------------

    def _maybe_start_gc(self) -> None:
        if self.gc_running:
            return
        if len(self.free) >= self.params.gc_free_block_threshold:
            return
        if not self.full:
            return
        # Don't spin up a GC pass that cannot reclaim anything: a stuck
        # flush would otherwise restart it in a zero-time livelock.
        if not any(self._gc_feasible(c) for c in self._gc_candidates()):
            return
        self.gc_running = True
        self.env.process(self._gc_process())

    def _gc_candidates(self) -> List[GcCandidate]:
        chip = self._chip()
        return [
            GcCandidate(
                token=block_index,
                valid_bytes=self.hooks.valid_bytes(self.block_key(block_index)),
                erase_count=chip.block(block_index).erase_count,
            )
            for block_index in self.full
        ]

    def _gc_process(self) -> Any:
        epoch = self.epoch
        self._gc_generation += 1
        tracer = self.tracer
        ctx = tracer.request(
            "kaml.gc", log=self.log_id, generation=self._gc_generation
        ) if tracer.enabled else None
        gc_span = clean_span = erase_span = None
        if ctx is not None:
            gc_span = ctx.root
        try:
            while len(self.free) < self.params.gc_restore_target:
                if self.epoch != epoch:
                    return  # crashed meanwhile
                candidates = [
                    c for c in self._gc_candidates() if self._gc_feasible(c)
                ]
                victim = self.gc_policy.choose(candidates)
                if victim is None:
                    break
                block_index = victim.token
                self.full.remove(block_index)
                # From here until block_erased fires, any mapping install
                # into this block is installing into a block whose erase
                # is already decided; the hook lets late phase-3 installs
                # detect that and re-append instead (the survivor scan
                # below has already judged them garbage).
                self.hooks.block_doomed(self.block_key(block_index))
                if ctx is not None:
                    clean_span = ctx.begin(
                        "gc.clean_block",
                        parent=gc_span,
                        log=self.log_id,
                        block=block_index,
                        generation=self._gc_generation,
                    )
                yield from self._clean_block(block_index, ctx, clean_span)
                if ctx is not None:
                    ctx.finish(clean_span)
                if self.epoch != epoch:
                    return
                block_key = self.block_key(block_index)
                pin_wait_start = self.env.now
                yield from self.hooks.wait_unpinned(block_key)
                if ctx is not None:
                    if self.env.now > pin_wait_start:
                        ctx.record_span(
                            "gc.pin_wait",
                            start_us=pin_wait_start,
                            parent=gc_span,
                            block=block_index,
                        )
                    erase_span = ctx.begin(
                        "gc.erase", parent=gc_span, log=self.log_id, block=block_index
                    )
                retired = False
                erase_attempts = 0
                while True:
                    try:
                        yield from self.array.erase_block(
                            PagePointer(self.channel, self.chip, block_index, 0),
                            ctx=ctx, parent=erase_span,
                        )
                        break
                    except EraseFailure:
                        # Transient fault: retry the erase pulse a bounded
                        # number of times, then retire the block.
                        erase_attempts += 1
                        self.metrics.counter(
                            "kaml.log.erase_failures", log=self.log_id
                        ).inc()
                        if tracer.enabled:
                            tracer.request(
                                "kaml.flash_fault",
                                kind="erase",
                                log=self.log_id,
                                block=block_index,
                                attempt=erase_attempts,
                            ).close()
                        if self.epoch != epoch:
                            return
                        if erase_attempts > self.MAX_ERASE_RETRIES:
                            retired = True
                            break
                    except WearOutError:
                        # The block exceeded its endurance: retire it.  Its
                        # survivors were already relocated; capacity shrinks
                        # by one block and the log carries on (Section
                        # II-A's "limited number of erase operations").
                        retired = True
                        break
                if self.epoch != epoch:
                    return  # ghost pass: the erase died with the power
                if retired:
                    self.metrics.counter(
                        "kaml.log.retired_blocks", log=self.log_id
                    ).inc()
                    if ctx is not None:
                        erase_span.tags["retired"] = True
                        ctx.finish(erase_span)
                    self.hooks.block_erased(block_key)
                    continue
                if ctx is not None:
                    ctx.finish(erase_span)
                self.metrics.counter(
                    "kaml.log.gc.erased_blocks", log=self.log_id
                ).inc()
                self.hooks.block_erased(block_key)
                self.free.append(block_index)
                self.space_gate.fire()
        finally:
            self.gc_running = False
            if ctx is not None:
                ctx.close()
            # Wake any flush that was waiting so it can re-check state.
            self.space_gate.fire()

    def _gc_feasible(self, candidate: GcCandidate) -> bool:
        """Can the victim's survivors fit in the pages GC can reach?

        Prevents the GC stream from wedging mid-victim with nowhere to
        put relocated records.  Cleaning must also net at least a page.
        """
        if candidate.valid_bytes >= self.block_capacity_bytes - self.geometry.page_size:
            return False
        required_pages = -(-candidate.valid_bytes // self.geometry.page_size)
        gc_active = self._active[True]
        available = len(self.free) * self.geometry.pages_per_block
        if gc_active is not None:
            available += self.geometry.pages_per_block - self._active_wp[True]
        return required_pages <= available

    def _clean_block(
        self, block_index: int, ctx: Optional[TraceContext] = None, parent=None
    ) -> Any:
        """Relocate every still-valid record out of a victim block."""
        self.metrics.observe(
            "kaml.gc.victim_valid_bytes",
            self.hooks.valid_bytes(self.block_key(block_index)),
            log=self.log_id,
        )
        clean_start = self.env.now
        epoch = self.epoch
        chip = self._chip()
        block = chip.block(block_index)
        survivors: List[Tuple[Record, RecordLocation]] = []
        for page_index in range(block.programmed_pages):
            pointer = PagePointer(self.channel, self.chip, block_index, page_index)
            try:
                data, bitmap = yield from self.array.read_page(
                    pointer, ctx=ctx, parent=parent
                )
            except ReadError:
                if self.epoch != epoch:
                    return  # ghost pass: the block was reclaimed post-crash
                raise
            if self.epoch != epoch:
                return
            for start, record in data.items():
                location = RecordLocation(
                    page=pointer,
                    chunk=start,
                    nchunks=record.chunks(self.geometry.chunk_size),
                )
                if self.hooks.is_valid(record, location):
                    survivors.append((record, location))
        if not survivors:
            return
        staged = []
        for record, old_location in survivors:
            event = self.stage(record, for_gc=True)
            staged.append((event, record, old_location))
        self._launch_flush(for_gc=True)
        moved_bytes = 0
        for event, record, old_location in staged:
            new_location = yield event
            self._crash_point("gc.mid_relocation")
            if self.epoch != epoch:
                return  # ghost pass: never CAS into recovered mapping state
            if self.hooks.relocate(record, old_location, new_location):
                self.metrics.counter(
                    "kaml.log.gc.relocated_records", log=self.log_id
                ).inc()
                moved_bytes += record.size
                if ctx is not None:
                    ctx.event(
                        "gc.relocate",
                        parent=parent,
                        log=self.log_id,
                        namespace=record.namespace_id,
                        key=record.key,
                        block=block_index,
                    )
        self.metrics.counter(
            "kaml.log.gc.moved_bytes", log=self.log_id
        ).inc(moved_bytes)
        self.metrics.observe(
            "kaml.gc.clean_block_us", self.env.now - clean_start, log=self.log_id
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def free_blocks(self) -> int:
        return len(self.free)

    def open_room(self) -> int:
        """Free chunks of the part-filled host page; 0 when none is open."""
        assembly = self._points[False].assembly
        return assembly.free_chunks if assembly.records else 0

    def force_flush(self) -> None:
        """Push any open pages toward flash (test/shutdown helper)."""
        self._launch_flush(for_gc=False)
        self._launch_flush(for_gc=True)

    def reset_write_points(self) -> None:
        """Drop in-flight state after a simulated crash; the records are
        still staged in NVRAM and will be replayed (Section IV-D)."""
        self.epoch += 1
        self.gc_running = False
        for for_gc in (False, True):
            point = self._points[for_gc]
            if point.timer is not None:
                point.timer.defuse()
                point.timer = None
            self._points[for_gc] = _WritePoint(
                self._new_assembly(), generation=point.generation + 1
            )
            # Re-sync the soft write pointer with what actually reached flash.
            block = self._active[for_gc]
            if block is not None:
                self._active_wp[for_gc] = self._chip().block(block).write_pointer

    def power_loss(self) -> None:
        """Full power cut: block lists and write points lived in DRAM.

        Everything is cleared; :meth:`rescan` rebuilds the lists from
        flash.  The lock instance is deliberately kept — ghost flushes
        from before the cut still release it through their ``finally``
        blocks.
        """
        self.reset_write_points()
        self.free = []
        self.full = []
        self._active = {False: None, True: None}
        self._active_wp = {False: 0, True: 0}

    def rescan(self, ctx: Optional[TraceContext] = None) -> Any:
        """Rebuild the block lists :meth:`power_loss` emptied, from flash.

        Every programmed page of the log's target is read; the OOB bitmap
        yields each record's chunk run (no external directory needed).
        Returns ``(pages_read, [(record, location)])`` for the recovery
        procedure to rank.
        """
        chip = self._chip()
        root = ctx.root if ctx is not None else None
        #: (free_pages, block_index, write_pointer) of partial blocks.
        partial: List[Tuple[int, int, int]] = []
        pages_read = 0
        found: List[Tuple[Record, RecordLocation]] = []
        for block_index in range(self.geometry.blocks_per_chip):
            block = chip.block(block_index)
            if block.is_bad:
                continue  # retired; never allocatable again
            free_pages = self.geometry.pages_per_block - block.programmed_pages
            if block.programmed_pages == 0:
                self.free.append(block_index)
            elif free_pages:
                partial.append((free_pages, block_index, block.programmed_pages))
            else:
                self.full.append(block_index)
            for page_index in range(block.programmed_pages):
                pointer = PagePointer(self.channel, self.chip, block_index, page_index)
                data, oob = yield from self.array.read_page(
                    pointer, ctx=ctx, parent=root
                )
                pages_read += 1
                for start, nchunks in decode_bitmap(
                    oob or 0, self.geometry.chunks_per_page
                ):
                    record = data.get(start) if data else None
                    if record is not None:
                        found.append((record, RecordLocation(pointer, start, nchunks)))
        # The two emptiest partial blocks become the resumed write
        # points; the rest are sealed for GC.  Discarding every
        # partial tail instead can leave the log with zero
        # allocatable pages — replay then wedges because GC has
        # nowhere to relocate survivors either.  GC gets the largest
        # tail: it is the stream that reclaims whole blocks, so
        # feeding it first un-wedges a full log; the host stream can
        # wait on the space gate, GC cannot.
        partial.sort(key=lambda entry: (-entry[0], entry[1]))
        for for_gc, (_free, block_index, write_pointer) in zip((True, False), partial):
            self._active[for_gc] = block_index
            self._active_wp[for_gc] = write_pointer
        self.full.extend(entry[1] for entry in partial[2:])
        return pages_read, found
