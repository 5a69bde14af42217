"""Transient flash fault injection (program/erase failures).

Real NAND programs and erases fail transiently (Section II-A); firmware
must retry or remap, never lose committed data.  The injector hooks
every chip's :attr:`~repro.flash.chip.FlashChip.fault_hook` and draws
seeded Bernoulli failures per operation.  A failed program burns the
attempted page (the log remaps the assembly to the next page); a failed
erase leaves the block dirty (the log retries, then retires it).
"""

from __future__ import annotations

from random import Random
from typing import Any, Optional


class FlashFaultInjector:
    """Seeded per-operation transient fault source for a flash array."""

    def __init__(
        self,
        seed: int,
        program_fail_rate: float = 0.0,
        erase_fail_rate: float = 0.0,
        metrics: Optional[Any] = None,
    ):
        for name, rate in (
            ("program_fail_rate", program_fail_rate),
            ("erase_fail_rate", erase_fail_rate),
        ):
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1); got {rate}")
        self._rng = Random(seed)
        self.program_fail_rate = program_fail_rate
        self.erase_fail_rate = erase_fail_rate
        self.metrics = metrics

    def install(self, array: Any) -> "FlashFaultInjector":
        """Hook every chip of a :class:`~repro.flash.array.FlashArray`."""
        for _channel, _chip_index, chip in array.iter_chips():
            chip.fault_hook = self._hook
        return self

    def _hook(self, op: str, block_index: int, page_index: int) -> bool:
        if op == "program":
            rate = self.program_fail_rate
        elif op == "erase":
            rate = self.erase_fail_rate
        else:
            return False
        if rate <= 0.0 or self._rng.random() >= rate:
            return False
        if self.metrics is not None:
            self.metrics.counter("fault.flash.injected", op=op).inc()
        return True
