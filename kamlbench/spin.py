"""The host-time yardstick: a fixed calibration spin and the estimator on it.

On a shared box a neighbour slows the machine for tens of seconds at a
time, so raw wall-clock throughput of identical code moves by more than
10 % between runs.  Every timed segment is therefore bracketed by a fixed
pure-Python spin whose instruction mix resembles the simulator's (heap
push/pop, generator ``send``, lookups in a dict too large for the CPU
caches), and the segment's wall time is scaled by how slow the bracketing
spins ran relative to :data:`SPIN_REF_S`.

The spin imports nothing from ``repro``: an optimisation of the program
under test must not be able to speed up its own ruler.
"""

from __future__ import annotations

import statistics
from heapq import heappop, heappush
from time import perf_counter
from typing import Iterator, List, Sequence

#: Wall time of one spin on the unloaded reference box (2-core sandbox,
#: CPython 3.11).  Normalised host times are "seconds on that box".
SPIN_REF_S = 0.065

_TABLE_ENTRIES = 200_000
_SPIN_STEPS = 92_000
_HEAP_DEPTH = 64


def _echo() -> Iterator[int]:
    value = 0
    while True:
        value = (yield value) & 0xFF


class Spin:
    """One calibration workload; build once, :meth:`run` many times."""

    def __init__(self) -> None:
        # Knuth-hashed keys: insertion order is unrelated to key order,
        # so successive lookups land on unrelated cache lines.
        self._table = {
            (i * 2654435761) & 0xFFFFFFFF: i for i in range(_TABLE_ENTRIES)
        }
        stride = _TABLE_ENTRIES // _SPIN_STEPS
        self._keys = list(self._table)[::stride][:_SPIN_STEPS]

    def run(self) -> float:
        """Seconds one spin took just now."""
        table = self._table
        heap: List[tuple] = []
        echo = _echo()
        next(echo)
        send = echo.send
        acc = 0
        started = perf_counter()
        for key in self._keys:
            heappush(heap, (key & 1023, key))
            acc += table[key] + send(key)
            if len(heap) > _HEAP_DEPTH:
                heappop(heap)
        elapsed = perf_counter() - started
        if acc < 0:  # consume the result so the loop cannot be elided
            raise AssertionError("unreachable")
        return elapsed


def normalised_seconds(wall_s: float, spin_before_s: float, spin_after_s: float) -> float:
    """``wall_s`` rescaled to the reference box's speed."""
    return wall_s * SPIN_REF_S / ((spin_before_s + spin_after_s) / 2.0)


def normalised_total(walls_s: Sequence[float], spins_s: Sequence[float]) -> float:
    """Normalised seconds of consecutive segments.

    ``spins_s`` has one more entry than ``walls_s``: spin *i* ran before
    segment *i* and spin *i + 1* after it.
    """
    if len(spins_s) != len(walls_s) + 1:
        raise ValueError("need exactly one spin before and after every segment")
    return sum(
        normalised_seconds(wall, spins_s[i], spins_s[i + 1])
        for i, wall in enumerate(walls_s)
    )


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    low, _mid, high = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (high - low) / median if median else 0.0
