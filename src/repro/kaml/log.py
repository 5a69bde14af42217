"""The in-storage append logs (Sections IV-B, IV-E).

Each log owns one flash target (a chip behind a channel) and manages its
blocks as an append-only stream of record-packed pages.  A page fills in a
non-volatile buffer (records are already durable in NVRAM when they arrive
here) and is programmed when full or once nothing has joined it for the
flush timeout.  GC
runs per log: victims are chosen by low erase count and low valid bytes,
only the victim pages that still hold valid bytes are read and parsed via
the OOB bitmap, and still-valid records are re-appended through a
dedicated GC write point.

The log knows nothing about namespaces; validity checks and index updates
go through the seven hooks :class:`~repro.kaml.mapping.Mapping` provides,
and its flush and GC processes are spawned into the device's process
registry (``hooks.processes``), so a power cut ends them.  After the cut
the log rebuilds its own block lists from its flash target
(:meth:`KamlLog.rescan`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro import sanitize
from repro.config import ReproConfig
from repro.errors import ReproError
from repro.flash import (
    EraseFailure,
    FlashArray,
    PagePointer,
    ProgramFailure,
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
from repro.obs import MetricsRegistry, TraceContext, Tracer, lazy_instrument
from repro.sim import Environment, Event, Gate


class LogSpaceError(ReproError):
    """A log ran out of blocks and GC could not reclaim any."""


@dataclass
class _WritePoint:
    """An open page being assembled (user or GC stream)."""

    assembly: PageAssembly
    #: Fires with the page's :class:`PagePointer` once it is programmed:
    #: one completion per page, made when the first record joins it.
    programmed: Optional[Event] = None
    #: Sim time of the newest append; the flush timer counts from here.
    last_append: float = 0.0


#: A launched page: its assembly, its one completion, its stream and the
#: program attempts it has failed so far.
_QueuedPage = Tuple[PageAssembly, Event, bool, int]


class KamlLog:
    """One append log on one flash target."""

    #: Bounded retries for transient media faults before giving up.
    MAX_PROGRAM_RETRIES = 4
    MAX_ERASE_RETRIES = 2

    # GC-pass and fault-path instruments, resolved on first use.
    _victim_valid_bytes_histogram = lazy_instrument(
        "histogram", "kaml.gc.victim_valid_bytes", log="log_id"
    )
    _clean_block_us_histogram = lazy_instrument("histogram", "kaml.gc.clean_block_us", log="log_id")
    _relocated_counter = lazy_instrument("counter", "kaml.log.gc.relocated_records", log="log_id")
    _moved_bytes_counter = lazy_instrument("counter", "kaml.log.gc.moved_bytes", log="log_id")
    _erased_counter = lazy_instrument("counter", "kaml.log.gc.erased_blocks", log="log_id")
    _retired_counter = lazy_instrument("counter", "kaml.log.retired_blocks", log="log_id")
    _erase_failures_counter = lazy_instrument("counter", "kaml.log.erase_failures", log="log_id")
    _program_failures_counter = lazy_instrument(
        "counter", "kaml.log.program_failures", log="log_id"
    )
    _program_retries_counter = lazy_instrument("counter", "kaml.log.program_retries", log="log_id")

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
        self.metrics = metrics if metrics is not None else MetricsRegistry()
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
        #: The host write point's quiescence timer, kept across pages
        #: (:meth:`_timer_fired`); the GC write point has none.
        self._timer: Optional[Event] = None
        #: Launched pages waiting for the target, in launch order:
        #: ``(assembly, programmed, for_gc, attempts)``.  One flush
        #: process drains it while ``_programming`` is set.
        self._flush_queue: Deque[_QueuedPage] = deque()
        self._programming = False
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

    def _new_assembly(self) -> PageAssembly:
        return PageAssembly(self.geometry.chunks_per_page)

    @property
    def block_capacity_bytes(self) -> int:
        return self.geometry.pages_per_block * self.geometry.page_size

    def block_key(self, block_index: int) -> Tuple[int, int, int]:
        return (self.channel, self.chip, block_index)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def stage(self, record: Record, nchunks: int, for_gc: bool) -> Tuple[Event, int]:
        """Synchronously place a record of ``nchunks`` chunks into the open
        page; returns the page's one completion, which fires with its
        :class:`PagePointer` after the program, and the record's first
        chunk in the page."""
        point = self._points[for_gc]
        if nchunks > point.assembly.chunks_per_page:
            raise RecordTooLargeError(
                f"record of {record.size} B exceeds one page"
            )
        if point.assembly.used_chunks + nchunks > point.assembly.chunks_per_page:
            self._launch_flush(for_gc)
            point = self._points[for_gc]
        assembly = point.assembly
        start = assembly.add(record, nchunks)
        point.last_append = self.env.now
        programmed = point.programmed
        if programmed is None:
            programmed = point.programmed = Event(self.env)
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
        counters[0].value += 1
        counters[1].value += record.size
        if assembly.used_chunks == assembly.chunks_per_page:
            self._launch_flush(for_gc)
        elif not start and not for_gc and self._timer is None:
            self._arm_timer(self.params.flush_timeout_us)
        return programmed, start

    def _launch_flush(self, for_gc: bool) -> None:
        point = self._points[for_gc]
        assembly = point.assembly
        if not assembly.records:
            return
        # Every launch passes here, so this is the one place padding is
        # counted: the page's free tail is programmed as waste.
        padded = assembly.chunks_per_page - assembly.used_chunks
        if padded:
            self._wasted_chunks_counter.value += padded
        self._points[for_gc] = _WritePoint(self._new_assembly())
        self._flush_queue.append((assembly, point.programmed, for_gc, 0))
        if not self._programming:
            self._programming = True
            self.env.process(self._flush_process(), self.hooks.processes)

    def _arm_timer(self, delay_us: float) -> None:
        self._timer = self.env.timeout(delay_us)
        self._timer.add_callback(self._timer_fired)

    def _timer_fired(self, _timer: Event) -> None:
        """Pad and program the open host page once it goes quiet (Section
        IV-B): ``flush_timeout_us`` after its *last* append.

        The records are durable in NVRAM already, so only a page nobody
        is feeding any more is worth padding.  One timer per log serves
        every host page: the first append to an empty page arms it only if
        none is pending, an append only stamps ``last_append``, and a page
        that launches full leaves it pending for the next page.  Firing, it
        re-arms for the remainder if the open page was fed since, launches
        the page if it is quiet, and lapses if no page is open.  The GC
        write point has no timer: :meth:`_clean_block` launches its page.
        """
        point = self._points[False]
        self._timer = None
        if not point.assembly.records:
            return
        remaining_us = point.last_append + self.params.flush_timeout_us - self.env.now
        if remaining_us > 0:
            self._arm_timer(remaining_us)  # fed since it was armed: not quiet yet
            return
        self._timer_flushes_counter.value += 1
        self._launch_flush(False)

    def _flush_process(self) -> Any:
        """Program the queued pages back to back, in launch order.

        One process per busy spell: a page launched while it runs joins
        the queue at no event cost, and the process ends when the queue
        is empty.  A page that finds no space while GC runs parks on
        ``space_gate`` (:meth:`_requeue`) and the process moves on, so
        GC's own page is never stuck behind it.
        """
        queue = self._flush_queue
        try:
            while queue:
                assembly, programmed, for_gc, attempts = queue.popleft()
                if sanitize.enabled():
                    # SAN-CHUNK: runs must be packed, in-bounds, and bitmap
                    # round-trippable before they become on-flash truth.
                    sanitize.check_page_assembly(assembly)
                data = {}
                start_cursor = 0
                for record, nchunks in zip(assembly.records, assembly.runs):
                    data[start_cursor] = record
                    start_cursor += nchunks
                while True:
                    pointer = self._try_allocate(for_gc)
                    if pointer is None:
                        if self.gc_running:
                            self.space_gate.wait().add_callback(partial(
                                self._requeue, (assembly, programmed, for_gc, attempts)
                            ))
                        else:
                            programmed.fail(LogSpaceError(
                                f"log {self.log_id} is full and nothing is reclaimable"
                            ))
                        break
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
                        self._program_failures_counter.inc()
                        if tracer.enabled:
                            tracer.request(
                                "kaml.flash_fault",
                                kind="program",
                                log=self.log_id,
                                block=pointer.block,
                                page=pointer.page,
                                attempt=attempts,
                            ).close()
                        if attempts >= self.MAX_PROGRAM_RETRIES:
                            programmed.fail(LogSpaceError(
                                f"log {self.log_id} page program failed "
                                f"{attempts} times; giving up"
                            ))
                            break
                        self._program_retries_counter.inc()
                        continue
                    if flush_ctx is not None:
                        flush_ctx.close()
                    self._programmed_pages_counter.value += 1
                    self._programmed_bytes_counter.value += self.geometry.page_size
                    self._program_us_histogram.observe(self.env.now - program_start)
                    programmed.succeed(pointer)
                    break
        finally:
            self._programming = False

    def _requeue(self, page: _QueuedPage, _fired: Event) -> None:
        """``space_gate`` fired: a parked page goes back behind the pages
        launched meanwhile, its failed attempts still counted, and starts
        the flush process on the spot if nothing is draining."""
        self._flush_queue.append(page)
        if not self._programming:
            self._programming = True
            self.env.start(self._flush_process(), self.hooks.processes)

    # ------------------------------------------------------------------
    # Block allocation
    # ------------------------------------------------------------------

    def _try_allocate(self, for_gc: bool) -> Optional[PagePointer]:
        """Next programmable page for a stream, or None if blocks must be
        reclaimed first.  Never yields; only the flush process calls it."""
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
        self.env.process(self._gc_process(), self.hooks.processes)

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
                        self._erase_failures_counter.inc()
                        if tracer.enabled:
                            tracer.request(
                                "kaml.flash_fault",
                                kind="erase",
                                log=self.log_id,
                                block=block_index,
                                attempt=erase_attempts,
                            ).close()
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
                if retired:
                    self._retired_counter.inc()
                    if ctx is not None:
                        erase_span.tags["retired"] = True
                        ctx.finish(erase_span)
                    self.hooks.block_erased(block_key)
                    continue
                if ctx is not None:
                    ctx.finish(erase_span)
                self._erased_counter.inc()
                self.hooks.block_erased(block_key)
                self.free.append(block_index)
                self.space_gate.fire()
        finally:
            # A power cut ends the pass here too, once the log is reset:
            # its fresh ``space_gate`` has no waiter to wake.
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
        self._victim_valid_bytes_histogram.observe(
            self.hooks.valid_bytes(self.block_key(block_index))
        )
        clean_start = self.env.now
        chip = self._chip()
        block = chip.block(block_index)
        survivors: List[Tuple[Record, RecordLocation]] = []
        for page_index in range(block.programmed_pages):
            pointer = PagePointer(self.channel, self.chip, block_index, page_index)
            if not self.hooks.page_live(pointer):
                continue  # the block is doomed: a dead page stays dead
            data, _bitmap = yield from self.array.read_page(
                pointer, ctx=ctx, parent=parent
            )
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
        staged = [
            (*self.stage(record, old.nchunks, for_gc=True), record, old)
            for record, old in survivors
        ]
        self._launch_flush(for_gc=True)  # the GC write point has no timer
        moved_bytes = 0
        for programmed, start, record, old_location in staged:
            pointer = yield programmed  # once per page: later records resume at once
            new_location = RecordLocation(pointer, start, old_location.nchunks)
            self._crash_point("gc.mid_relocation")
            if self.hooks.relocate(record, old_location, new_location):
                self._relocated_counter.inc()
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
        self._moved_bytes_counter.inc(moved_bytes)
        self._clean_block_us_histogram.observe(self.env.now - clean_start)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def free_blocks(self) -> int:
        return len(self.free)

    def open_room(self) -> int:
        """Free chunks of the part-filled host page; 0 when none is open."""
        assembly = self._points[False].assembly
        return assembly.chunks_per_page - assembly.used_chunks if assembly.records else 0

    def force_flush(self) -> None:
        """Push any open pages toward flash (test/shutdown helper)."""
        self._launch_flush(for_gc=False)
        self._launch_flush(for_gc=True)

    def power_loss(self) -> None:
        """Full power cut: block lists and write points lived in DRAM.

        Everything is cleared; the records are still staged in NVRAM and
        will be replayed (Section IV-D), and :meth:`rescan` rebuilds the
        lists from flash.  The queued pages are dropped, and so are the
        pages parked on the old ``space_gate``; the device then ends the
        log's flush and GC processes.
        """
        self.gc_running = False
        self._flush_queue.clear()
        self.space_gate = Gate(self.env, name=f"log{self.log_id}.space")
        if self._timer is not None:
            self._timer.defuse()
            self._timer = None
        self._points = {
            False: _WritePoint(self._new_assembly()),
            True: _WritePoint(self._new_assembly()),
        }
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
