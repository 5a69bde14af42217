"""Seeded op streams, generated before any window opens.

The benchmark owns its inputs: the program under test never sees the
seed or a generator, only the calls these streams turn into.  Each mix is
exact (a shuffled multiset, not per-op coin flips), so two seeds differ
in key order and placement but not in how many reads or writes they
issue.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import List, Sequence, Tuple

READ, UPDATE = 0, 1
GET, PUT1, PUT3 = 0, 1, 2

#: put-gc record sizes; key ``k`` always has ``PUT_GC_SIZES[k % 3]`` so
#: the live payload — and with it the fill — stays constant.
PUT_GC_SIZES = (256, 1000, 3500)

_SCATTER_SEED = 0x4B414D4C  # "KAML"


class Zipfian:
    """Inverse-CDF zipfian over ``n`` items, hottest ranks scattered.

    Rank *r* has weight ``1 / (r + 1) ** theta``.  A fixed permutation
    maps ranks to keys so the hot set is not a run of adjacent keys.  It
    is deliberately not drawn from the run's seed: a handful of keys
    carry a third of all accesses, and where *those* keys sit in the
    device's mapping buckets moved ``ycsb-b-hot``'s simulated latency by
    17 % and host throughput by 25 % from seed to seed.  Which keys are
    hot is part of the workload; the seed varies the order of accesses.
    """

    def __init__(self, n: int, theta: float):
        weights = [1.0 / (rank + 1) ** theta for rank in range(n)]
        total = sum(weights)
        self._cdf = list(itertools.accumulate(w / total for w in weights))
        self._cdf[-1] = 1.0
        self._keys = list(range(n))
        random.Random(_SCATTER_SEED).shuffle(self._keys)

    def rank(self, u: float) -> int:
        return bisect.bisect_left(self._cdf, u)

    def key(self, u: float) -> int:
        return self._keys[self.rank(u)]


def _exact_mix(rng: random.Random, n: int, shares: Sequence[Tuple[int, float]]) -> List[int]:
    """``n`` op kinds with exactly ``share * n`` (rounded) of each kind;
    the first kind absorbs the rounding remainder."""
    kinds: List[int] = []
    for kind, share in shares[1:]:
        kinds.extend([kind] * round(share * n))
    kinds.extend([shares[0][0]] * (n - len(kinds)))
    rng.shuffle(kinds)
    return kinds


def ycsb_b(rng: random.Random, n: int, records: int, theta: float) -> List[Tuple[int, int]]:
    """``(kind, key)``: 95 % READ / 5 % UPDATE; uniform keys when
    ``theta`` is 0, else zipfian(theta)."""
    kinds = _exact_mix(rng, n, [(READ, 0.95), (UPDATE, 0.05)])
    if theta:
        zipf = Zipfian(records, theta)
        return [(kind, zipf.key(rng.random())) for kind in kinds]
    return [(kind, rng.randrange(records)) for kind in kinds]


def put_batches(rng: random.Random, n: int, keys: int) -> List[Tuple[int, ...]]:
    """Atomic batches of 1-4 distinct uniform keys."""
    population = range(keys)
    return [tuple(rng.sample(population, rng.randint(1, 4))) for _ in range(n)]


def cluster_mix(rng: random.Random, n: int, keys: int) -> List[Tuple[int, Tuple[int, ...]]]:
    """``(kind, keys)``: 50 % GET, 20 % single-key PUT1, 30 % 3-key PUT3
    with distinct uniform keys (so nearly all straddle shards)."""
    kinds = _exact_mix(rng, n, [(GET, 0.5), (PUT1, 0.2), (PUT3, 0.3)])
    population = range(keys)
    return [
        (kind, tuple(rng.sample(population, 3 if kind == PUT3 else 1)))
        for kind in kinds
    ]
