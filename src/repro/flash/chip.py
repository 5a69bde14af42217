"""A flash chip (die): one command engine over many blocks.

Die arbitration is read-priority.  A program or erase is a *pulse* that
holds ``engine``.  A **host read** (``priority=True``: the flash read a
host read command is waiting on) that finds a pulse in flight does not
queue: it suspends the pulse -- ``suspend_us``, the sense, and ``resume_us``
before the pulse carries on -- and the pulse ends later by exactly the time
the die was away.  No pulse is postponed by more than its own length; a
read that would break that bound queues on ``engine`` like any other
command, so writes cannot starve.  In the queue every request is keyed by
its arrival time and a host read by ``now - program_us``: a bounded head
start that overtakes only pulses queued within one ``t_PROG`` before it.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.config import FlashGeometry, FlashTimings
from repro.flash.block import FlashBlock
from repro.flash.errors import AddressError, EraseFailure, ProgramFailure
from repro.sim import Environment, Resource


class ChipStats:
    """Per-chip operation tallies (slotted: bumped on every flash op).

    ``busy_us`` is die-occupied time counted once: a read served inside a
    suspended pulse adds nothing, the pulse's elapsed time covers it.
    ``away_us`` is the part of it pulses spent suspended.
    """

    __slots__ = ("reads", "programs", "erases", "busy_us",
                 "suspensions", "suspended_reads", "away_us")

    def __init__(self) -> None:
        self.reads = 0
        self.programs = 0
        self.erases = 0
        self.busy_us = 0.0
        self.suspensions = 0
        self.suspended_reads = 0
        self.away_us = 0.0


class _Pulse:
    """The program/erase in flight on a die, as a suspending read sees it."""

    __slots__ = ("kind", "slack", "owed", "sense_end")

    def __init__(self, kind: str, length: float):
        self.kind = kind
        self.slack = length  # postponement still allowed: its own length in all
        self.owed = 0.0  # away time the pulse has not slept off yet
        self.sense_end = float("-inf")  # end of the last suspending read's sense


class FlashChip:
    """A die that executes one read/program/erase at a time.

    Chips within a channel can operate in parallel, but the channel's data
    bus (owned by :class:`~repro.flash.channel.FlashChannel`) serializes
    data transfers (Section IV-A).  The chip itself is a capacity-1 resource:
    callers hold it for the cell-operation portion of each command.
    """

    def __init__(
        self,
        env: Environment,
        geometry: FlashGeometry,
        timings: FlashTimings,
        name: str = "chip",
    ):
        self.env = env
        self.geometry = geometry
        self.timings = timings
        self.name = name
        self.blocks = [FlashBlock(geometry) for _ in range(geometry.blocks_per_chip)]
        self.engine = Resource(env, capacity=1, name=f"{name}.engine")
        self.stats = ChipStats()
        # Timing constants hoisted out of the per-op generator bodies.
        self._read_us = timings.read_us
        self._program_us = timings.program_us
        self._erase_us = timings.erase_us
        self._suspend_us = timings.suspend_us
        self._resume_us = timings.resume_us
        #: The pulse holding ``engine``; None between pulses.
        self._pulse: Optional[_Pulse] = None
        #: ``flash.suspensions{kind}`` / ``flash.suspended_reads``, resolved
        #: once by :meth:`attach_metrics` (None: no registry attached).
        self._counters = None
        #: Optional transient-fault hook (``repro.fault``): called as
        #: ``hook(op, block_index, page_index)`` and returns True when the
        #: operation should fail.  None (the default) costs nothing.
        self.fault_hook = None
        #: Bumped by :meth:`power_loss`.  A program/erase that has not
        #: mutated cells by the cut aborts instead of completing later —
        #: on real hardware the charge pump simply dies with the power.
        self.generation = 0

    def attach_metrics(self, registry) -> None:
        """Resolve the suspension counters once: no per-op label hashing."""
        self._counters = {
            "program": registry.counter("flash.suspensions", kind="program"),
            "erase": registry.counter("flash.suspensions", kind="erase"),
            "read": registry.counter("flash.suspended_reads"),
        }

    def power_loss(self) -> None:
        """A power cut: operations still queued or mid-pulse never land."""
        self.generation += 1

    def block(self, block_index: int) -> FlashBlock:
        if not 0 <= block_index < len(self.blocks):
            raise AddressError(f"block index {block_index} out of range")
        return self.blocks[block_index]

    # -- timed operations (drive with ``yield from``) ---------------------

    def read_cells(self, block_index: int, page_index: int,
                   ctx=None, parent=None, priority: bool = False) -> Any:
        """Cell array -> page register.  Holds the chip engine for t_R, or
        (``priority``, see the module docstring) suspends the pulse that does.

        With a trace context, the wait for the die is recorded as a
        ``nand.wait`` span (contended dies only) and the read pulse as
        ``nand.read`` — spans are bookkeeping, never simulation events.
        """
        block = self.block(block_index)
        env = self.env
        queued = env.now
        pulse = self._pulse
        if priority and pulse is not None:
            back = pulse.sense_end + self._resume_us  # the pulse carries on
            suspends = queued >= back
            if suspends:  # the die is on the pulse: take it off first
                start, back = queued + self._suspend_us, queued
            else:  # already away: join the line (or cut the resume short)
                start = max(queued, pulse.sense_end)
            sense_end = start + self._read_us
            away = sense_end + self._resume_us - back
            if away <= pulse.slack:
                pulse.slack -= away
                pulse.owed += away
                pulse.sense_end = sense_end
                delay = sense_end - queued
                env.try_advance(delay) or (yield env.timeout(delay))
                stats, counters = self.stats, self._counters
                stats.reads += 1
                stats.suspended_reads += 1
                stats.suspensions += suspends
                stats.away_us += away
                if counters is not None:
                    counters["read"].inc()
                    counters[pulse.kind].inc(suspends)
                if ctx is not None:
                    if start > queued:
                        ctx.record_span(
                            "nand.wait", start_us=queued, end_us=start,
                            parent=parent, chip=self.name,
                        )
                    ctx.record_span(
                        "nand.read", start_us=start, parent=parent, chip=self.name
                    )
                return block.read(page_index)
        key = queued - self._program_us if priority else queued
        request = self.engine.try_acquire() or (yield self.engine.request(key))
        if env.now > queued and ctx is not None:
            ctx.record_span(
                "nand.wait", start_us=queued, parent=parent, chip=self.name
            )
        try:
            started = env.now
            env.try_advance(self._read_us) or (yield env.timeout(self._read_us))
            self.stats.reads += 1
            self.stats.busy_us += env.now - started
            if ctx is not None:
                ctx.record_span(
                    "nand.read", start_us=started, parent=parent, chip=self.name
                )
            return block.read(page_index)
        finally:
            self.engine.release(request)

    def _spend_pulse(self, kind: str, length: float, ctx, parent, **tags) -> Any:
        """Spend a program/erase pulse on the die: ``length`` µs, then
        whatever suspending reads kept the die away, until nothing is owed."""
        env = self.env
        self._pulse = pulse = _Pulse(kind, length)
        started = env.now
        env.try_advance(length) or (yield env.timeout(length))
        while pulse.owed:
            owed, pulse.owed = pulse.owed, 0.0
            env.try_advance(owed) or (yield env.timeout(owed))
        self.stats.busy_us += env.now - started
        if ctx is not None:
            ctx.record_span(
                f"nand.{kind}", start_us=started, parent=parent, chip=self.name,
                away_us=length - pulse.slack, **tags,
            )

    def program_cells(
        self, block_index: int, page_index: int, data: Any, oob: Any,
        generation: Any = None, ctx=None, parent=None,
    ) -> Any:
        """Page register -> cell array.  Holds the chip engine for t_PROG.

        The state mutation happens *before* the delay so that concurrent
        allocators observe the write pointer move immediately; the timing
        cost is still paid in full.  ``generation`` is the power-loss
        generation captured when the command entered the pipeline (the
        channel passes it across the bus transfer); a stale generation
        means power died first and the cells stay untouched.
        """
        block = self.block(block_index)
        if generation is None:
            generation = self.generation
        queued = self.env.now
        request = self.engine.try_acquire() or (yield self.engine.request(queued))
        if self.env.now > queued and ctx is not None:
            ctx.record_span(
                "nand.wait", start_us=queued, parent=parent, chip=self.name
            )
        try:
            if generation != self.generation:
                return None  # power was cut while queued; nothing reached the cells
            if self.fault_hook is not None and self.fault_hook("program", block_index, page_index):
                # Failed verify: the page is consumed (the write pointer
                # advances past it) but holds no records — an all-zero OOB
                # bitmap decodes to nothing, so scans and GC skip it.
                block.program(page_index, {}, oob=0)
                yield from self._spend_pulse(
                    "program", self._program_us, ctx, parent, failed=True
                )
                self.stats.programs += 1
                raise ProgramFailure(
                    f"{self.name}: program verify failed at block "
                    f"{block_index} page {page_index}"
                )
            block.program(page_index, data, oob)
            yield from self._spend_pulse("program", self._program_us, ctx, parent)
            self.stats.programs += 1
        finally:
            self._pulse = None
            self.engine.release(request)

    def erase(self, block_index: int, ctx=None, parent=None) -> Any:
        """Erase a whole block.  Holds the chip engine for t_BERS."""
        block = self.block(block_index)
        generation = self.generation
        queued = self.env.now
        request = self.engine.try_acquire() or (yield self.engine.request(queued))
        if self.env.now > queued and ctx is not None:
            ctx.record_span(
                "nand.wait", start_us=queued, parent=parent, chip=self.name
            )
        try:
            if generation != self.generation:
                return None  # power was cut while queued; the pulse never starts
            yield from self._spend_pulse("erase", self._erase_us, ctx, parent)
            self.stats.erases += 1
            if generation != self.generation:
                return None  # power was cut mid-pulse; the cells kept their charge
            if self.fault_hook is not None and self.fault_hook("erase", block_index, None):
                # The erase pulse failed: contents indeterminate, block
                # state unchanged — the caller retries or retires it.
                raise EraseFailure(
                    f"{self.name}: erase failed at block {block_index}"
                )
            block.erase()
        finally:
            self._pulse = None
            self.engine.release(request)
