"""The full flash array: all channels and chips, addressed uniformly."""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Tuple

from repro.config import FlashGeometry, FlashTimings
from repro.flash.address import PagePointer
from repro.flash.block import FlashBlock
from repro.flash.channel import FlashChannel
from repro.flash.chip import FlashChip
from repro.flash.errors import AddressError
from repro.sim import Environment


class FlashArray:
    """16 channels x 4 chips in the default geometry (Section IV-A)."""

    def __init__(self, env: Environment, geometry: FlashGeometry, timings: FlashTimings):
        geometry.validate()
        self.env = env
        self.geometry = geometry
        self.timings = timings
        self.channels: List[FlashChannel] = [
            FlashChannel(env, geometry, timings, index=i) for i in range(geometry.channels)
        ]

    # -- navigation --------------------------------------------------------

    def channel(self, channel_index: int) -> FlashChannel:
        if not 0 <= channel_index < len(self.channels):
            raise AddressError(f"channel index {channel_index} out of range")
        return self.channels[channel_index]

    def chip(self, channel_index: int, chip_index: int) -> FlashChip:
        return self.channel(channel_index).chip(chip_index)

    def block_at(self, pointer: PagePointer) -> FlashBlock:
        return self.chip(pointer.channel, pointer.chip).block(pointer.block)

    def iter_chips(self) -> Iterator[Tuple[int, int, FlashChip]]:
        for channel in self.channels:
            for chip_index, chip in enumerate(channel.chips):
                yield channel.index, chip_index, chip

    def iter_targets(self) -> Iterator[Tuple[int, int]]:
        """All (channel, chip) pairs — the paper's "flash targets"."""
        for channel_index in range(self.geometry.channels):
            for chip_index in range(self.geometry.chips_per_channel):
                yield channel_index, chip_index

    def attach_metrics(self, registry) -> None:
        """Publish every die's suspension counters in the stack's registry."""
        for _channel, _chip_index, chip in self.iter_chips():
            chip.attach_metrics(registry)

    def power_loss(self) -> None:
        """Abort every in-flight program/erase: the power is gone."""
        for _channel, _chip_index, chip in self.iter_chips():
            chip.power_loss()

    # -- timed operations ----------------------------------------------------

    def read_page(self, pointer: PagePointer, transfer_bytes: int = None,
                  ctx=None, parent=None, priority: bool = False) -> Any:
        result = yield from self.channel(pointer.channel).read_page(
            pointer.chip, pointer.block, pointer.page, transfer_bytes=transfer_bytes,
            ctx=ctx, parent=parent, priority=priority,
        )
        return result

    def program_page(self, pointer: PagePointer, data: Any, oob: Any = None,
                     ctx=None, parent=None) -> Any:
        yield from self.channel(pointer.channel).program_page(
            pointer.chip, pointer.block, pointer.page, data, oob,
            ctx=ctx, parent=parent,
        )

    def erase_block(self, pointer: PagePointer, ctx=None,
                    parent=None) -> Any:
        yield from self.channel(pointer.channel).erase_block(
            pointer.chip, pointer.block, ctx=ctx, parent=parent
        )

    # -- inspection ----------------------------------------------------------

    def total_erases(self) -> int:
        return sum(chip.stats.erases for _, _, chip in self.iter_chips())

    def total_programs(self) -> int:
        return sum(chip.stats.programs for _, _, chip in self.iter_chips())

    def total_reads(self) -> int:
        return sum(chip.stats.reads for _, _, chip in self.iter_chips())

    def suspension_totals(self) -> Dict[str, float]:
        """Device-wide sums of the dies' suspension tallies, as report keys."""
        stats = [chip.stats for _, _, chip in self.iter_chips()]
        return {
            "flash_suspensions": sum(s.suspensions for s in stats),
            "flash_suspended_reads": sum(s.suspended_reads for s in stats),
            "flash_away_us": sum(s.away_us for s in stats),
        }

    def erase_count_spread(self) -> Tuple[int, int]:
        """(min, max) erase count across all blocks — wear-leveling metric."""
        counts = [
            block.erase_count
            for _, _, chip in self.iter_chips()
            for block in chip.blocks
        ]
        return min(counts), max(counts)
