"""Write amplification and device-lifetime estimation.

Flash endurance analysis every SSD evaluation needs: given the device's
observed program/GC activity, compute write amplification and the share
of the erase budget already used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class WearReport:
    host_bytes_written: int
    flash_pages_programmed: int
    flash_bytes_programmed: int
    write_amplification: float
    erases_performed: int
    mean_erase_count: float
    max_erase_count: int
    endurance: int
    #: Fraction of total erase budget already consumed (by the mean).
    life_used: float


def wear_report(ssd: Any) -> WearReport:
    """Build a :class:`WearReport` from a :class:`~repro.kaml.KamlSsd`."""
    geometry = ssd.geometry
    pages = ssd.array.total_programs()
    flash_bytes = pages * geometry.page_size
    # Host bytes = everything the host ever sent, measured at the link.
    host_bytes = ssd.link.bytes_to_device
    erases = ssd.array.total_erases()
    counts = [
        block.erase_count
        for _c, _h, chip in ssd.array.iter_chips()
        for block in chip.blocks
    ]
    mean_erases = sum(counts) / len(counts)
    write_amplification = (
        flash_bytes / host_bytes if host_bytes > 0 else 0.0
    )
    return WearReport(
        host_bytes_written=host_bytes,
        flash_pages_programmed=pages,
        flash_bytes_programmed=flash_bytes,
        write_amplification=write_amplification,
        erases_performed=erases,
        mean_erase_count=mean_erases,
        max_erase_count=max(counts),
        endurance=geometry.erase_endurance,
        life_used=mean_erases / geometry.erase_endurance,
    )
