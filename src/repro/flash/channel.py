"""A flash channel: several chips behind one shared data bus."""

from __future__ import annotations

from typing import Any, List

from repro.config import FlashGeometry, FlashTimings
from repro.flash.chip import FlashChip
from repro.flash.errors import AddressError
from repro.sim import Environment, Resource


class FlashChannel:
    """Chips share the channel's control/data lines (Section IV-A).

    Reads/programs on different chips overlap in their cell phases, but
    only one chip can move data over the bus at a time — that contention is
    what caps per-channel bandwidth and what multiple logs per channel
    exploit (Figure 8).
    """

    def __init__(
        self,
        env: Environment,
        geometry: FlashGeometry,
        timings: FlashTimings,
        index: int = 0,
    ):
        self.env = env
        self.geometry = geometry
        self.timings = timings
        self.index = index
        self.chips: List[FlashChip] = [
            FlashChip(env, geometry, timings, name=f"ch{index}.chip{i}")
            for i in range(geometry.chips_per_channel)
        ]
        self.bus = Resource(env, capacity=1, name=f"ch{index}.bus")
        self.bus_busy_us = 0.0
        # Timing constants hoisted out of the per-transfer hot path.
        self._bus_command_us = timings.bus_command_us
        self._bus_bytes_per_us = timings.bus_bytes_per_us

    def chip(self, chip_index: int) -> FlashChip:
        if not 0 <= chip_index < len(self.chips):
            raise AddressError(f"chip index {chip_index} out of range")
        return self.chips[chip_index]

    def transfer_time(self, nbytes: int) -> float:
        return self._bus_command_us + nbytes / self._bus_bytes_per_us

    def transfer(self, nbytes: int, ctx=None, parent=None) -> Any:
        """Occupy the bus long enough to move ``nbytes``.

        With a trace context, arbitration time is recorded as a
        ``bus.wait`` span (only when non-zero — uncontended transfers
        stay span-free) and the occupancy itself as ``bus.transfer``.
        Spans are pure bookkeeping: no extra simulation events.
        """
        queued = self.env.now
        request = self.bus.try_acquire() or (yield self.bus.request())
        granted = self.env.now
        if granted > queued and ctx is not None:
            ctx.record_span(
                "bus.wait", start_us=queued, end_us=granted,
                parent=parent, channel=self.index,
            )
        try:
            started = self.env.now
            transfer_us = self.transfer_time(nbytes)
            self.env.try_advance(transfer_us) or (yield self.env.timeout(transfer_us))
            self.bus_busy_us += self.env.now - started
            if ctx is not None:
                ctx.record_span(
                    "bus.transfer", start_us=started, parent=parent,
                    channel=self.index, bytes=nbytes,
                )
        finally:
            self.bus.release(request)

    # -- whole commands ----------------------------------------------------

    def read_page(self, chip_index: int, block_index: int, page_index: int,
                  transfer_bytes: int = None, ctx=None,
                  parent=None, priority: bool = False) -> Any:
        """Cell read on the chip, then bus transfer toward the controller.

        ``priority`` marks the read a host read command is waiting on: the
        die suspends a program/erase for it (:mod:`repro.flash.chip`).
        """
        chip = self.chip(chip_index)
        result = yield from chip.read_cells(
            block_index, page_index, ctx=ctx, parent=parent, priority=priority
        )
        nbytes = self.geometry.page_size if transfer_bytes is None else transfer_bytes
        yield from self.transfer(nbytes, ctx=ctx, parent=parent)
        return result

    def program_page(self, chip_index: int, block_index: int, page_index: int,
                     data: Any, oob: Any = None, ctx=None,
                     parent=None) -> Any:
        """Bus transfer toward the chip, then the program operation.

        The bus is released before the (long) program phase, letting other
        chips in the channel stream data meanwhile — the interleaving that
        makes many logs per channel pay off (Figure 8).
        """
        chip = self.chip(chip_index)
        # Capture the chip's power-loss generation when the command enters
        # the pipeline: if power dies during the bus transfer, the program
        # must not touch the cells afterwards.
        generation = chip.generation
        yield from self.transfer(self.geometry.page_size, ctx=ctx, parent=parent)
        yield from chip.program_cells(
            block_index, page_index, data, oob, generation=generation,
            ctx=ctx, parent=parent,
        )

    def erase_block(self, chip_index: int, block_index: int,
                    ctx=None, parent=None) -> Any:
        chip = self.chip(chip_index)
        yield from chip.erase(block_index, ctx=ctx, parent=parent)
