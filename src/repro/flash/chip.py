"""A flash chip (die): one command engine over many blocks."""

from __future__ import annotations

from typing import Any

from repro.config import FlashGeometry, FlashTimings
from repro.flash.block import FlashBlock
from repro.flash.errors import AddressError, EraseFailure, ProgramFailure
from repro.obs.trace import NULL_CONTEXT
from repro.sim import Environment, Resource


class ChipStats:
    """Per-chip operation tallies (slotted: bumped on every flash op)."""

    __slots__ = ("reads", "programs", "erases", "busy_us")

    def __init__(self) -> None:
        self.reads = 0
        self.programs = 0
        self.erases = 0
        self.busy_us = 0.0


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
        #: Optional transient-fault hook (``repro.fault``): called as
        #: ``hook(op, block_index, page_index)`` and returns True when the
        #: operation should fail.  None (the default) costs nothing.
        self.fault_hook = None
        #: Bumped by :meth:`power_loss`.  A program/erase that has not
        #: mutated cells by the cut aborts instead of completing later —
        #: on real hardware the charge pump simply dies with the power.
        self.generation = 0

    def power_loss(self) -> None:
        """A power cut: operations still queued or mid-pulse never land."""
        self.generation += 1

    def block(self, block_index: int) -> FlashBlock:
        if not 0 <= block_index < len(self.blocks):
            raise AddressError(f"block index {block_index} out of range")
        return self.blocks[block_index]

    # -- timed operations (drive with ``yield from``) ---------------------

    def read_cells(self, block_index: int, page_index: int,
                   ctx=NULL_CONTEXT, parent=None) -> Any:
        """Cell array -> page register.  Holds the chip engine for t_R.

        With a trace context, engine arbitration is recorded as a
        ``nand.wait`` span (contended dies only) and the read pulse as
        ``nand.read`` — spans are bookkeeping, never simulation events.
        """
        block = self.block(block_index)
        queued = self.env.now
        request = self.engine.try_acquire() or (yield self.engine.request())
        if self.env.now > queued:
            ctx.record_span(
                "nand.wait", start_us=queued, parent=parent, chip=self.name
            )
        try:
            started = self.env.now
            self.env.try_advance(self._read_us) or (yield self.env.timeout(self._read_us))
            self.stats.reads += 1
            self.stats.busy_us += self.env.now - started
            ctx.record_span(
                "nand.read", start_us=started, parent=parent, chip=self.name
            )
            return block.read(page_index)
        finally:
            self.engine.release(request)

    def program_cells(
        self, block_index: int, page_index: int, data: Any, oob: Any,
        generation: Any = None, ctx=NULL_CONTEXT, parent=None,
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
        request = self.engine.try_acquire() or (yield self.engine.request())
        if self.env.now > queued:
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
                started = self.env.now
                self.env.try_advance(self._program_us) or (yield self.env.timeout(self._program_us))
                self.stats.programs += 1
                self.stats.busy_us += self.env.now - started
                ctx.record_span(
                    "nand.program", start_us=started, parent=parent,
                    chip=self.name, failed=True,
                )
                raise ProgramFailure(
                    f"{self.name}: program verify failed at block "
                    f"{block_index} page {page_index}"
                )
            block.program(page_index, data, oob)
            started = self.env.now
            self.env.try_advance(self._program_us) or (yield self.env.timeout(self._program_us))
            self.stats.programs += 1
            self.stats.busy_us += self.env.now - started
            ctx.record_span(
                "nand.program", start_us=started, parent=parent, chip=self.name
            )
        finally:
            self.engine.release(request)

    def erase(self, block_index: int, ctx=NULL_CONTEXT, parent=None) -> Any:
        """Erase a whole block.  Holds the chip engine for t_BERS."""
        block = self.block(block_index)
        generation = self.generation
        queued = self.env.now
        request = self.engine.try_acquire() or (yield self.engine.request())
        if self.env.now > queued:
            ctx.record_span(
                "nand.wait", start_us=queued, parent=parent, chip=self.name
            )
        try:
            if generation != self.generation:
                return None  # power was cut while queued; the pulse never starts
            started = self.env.now
            self.env.try_advance(self._erase_us) or (yield self.env.timeout(self._erase_us))
            self.stats.erases += 1
            self.stats.busy_us += self.env.now - started
            ctx.record_span(
                "nand.erase", start_us=started, parent=parent, chip=self.name
            )
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
            self.engine.release(request)
