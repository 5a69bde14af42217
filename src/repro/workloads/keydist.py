"""Key-request distributions (YCSB-style).

Deterministic given a seed, so experiments are reproducible.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

#: Largest zeta(n, theta) prefix sum computed so far, per theta.  The
#: harmonic sum is O(n) and dominates chooser construction at paper
#: scale (millions of records, one chooser per thread); caching makes
#: every chooser after the first O(1).  Extending a cached prefix is
#: bit-identical to a fresh left-to-right sum, so seeded runs are
#: unaffected.
_ZETA_PREFIX: Dict[float, Tuple[int, float]] = {}


def _zeta_cached(n: int, theta: float) -> float:
    cached = _ZETA_PREFIX.get(theta)
    if cached is not None:
        cached_n, cached_sum = cached
        if cached_n == n:
            return cached_sum
        if cached_n < n:
            for i in range(cached_n + 1, n + 1):
                cached_sum += 1.0 / (i ** theta)
            _ZETA_PREFIX[theta] = (n, cached_sum)
            return cached_sum
    total = 0.0
    for i in range(1, n + 1):
        total += 1.0 / (i ** theta)
    if cached is None:
        _ZETA_PREFIX[theta] = (n, total)
    return total


class UniformChooser:
    """Every key equally likely."""

    def __init__(self, item_count: int, seed: int = 1):
        if item_count < 1:
            raise ValueError("item_count must be >= 1")
        self.item_count = item_count
        self._rng = random.Random(seed)

    def next_key(self) -> int:
        return self._rng.randrange(self.item_count)


class ZipfianChooser:
    """Zipfian request distribution with YCSB's scrambling.

    Uses the Gray et al. rejection-free method (as in YCSB's
    ZipfianGenerator); keys are scrambled by a multiplicative hash so the
    popular keys are spread over the key space instead of clustered at 0.
    """

    ZIPFIAN_CONSTANT = 0.99

    def __init__(self, item_count: int, seed: int = 1, theta: Optional[float] = None,
                 scrambled: bool = True):
        if item_count < 1:
            raise ValueError("item_count must be >= 1")
        self.item_count = item_count
        self.theta = self.ZIPFIAN_CONSTANT if theta is None else theta
        self.scrambled = scrambled
        self._rng = random.Random(seed)
        self._zetan = self._zeta(item_count, self.theta)
        self._zeta2 = self._zeta(2, self.theta)
        self._alpha = 1.0 / (1.0 - self.theta)
        self._eta = (1 - (2.0 / item_count) ** (1 - self.theta)) / (
            1 - self._zeta2 / self._zetan
        )

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return _zeta_cached(n, theta)

    def next_key(self) -> int:
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            rank = 0
        elif uz < 1.0 + 0.5 ** self.theta:
            rank = 1
        else:
            rank = int(self.item_count * (self._eta * u - self._eta + 1) ** self._alpha)
        rank = min(rank, self.item_count - 1)
        if not self.scrambled:
            return rank
        return (rank * 0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D) % self.item_count


class LatestChooser:
    """YCSB workload D: favour recently inserted keys."""

    def __init__(self, item_count: int, seed: int = 1):
        self.item_count = item_count
        self._zipf = ZipfianChooser(max(1, item_count), seed=seed, scrambled=False)

    def grow(self, new_count: int) -> None:
        """Extend the key space after an insert."""
        if new_count > self.item_count:
            self.item_count = new_count

    def next_key(self) -> int:
        offset = self._zipf.next_key() % self.item_count
        return self.item_count - 1 - offset
