"""Garbage-collection victim-selection policies.

KAML "selects blocks to clean that have low erase counts and small amounts
of valid data" (Section IV-E) — :class:`WearAwarePolicy`.  The classic
greedy and cost-benefit policies are provided as ablation baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.obs import lazy_instrument


@dataclass(frozen=True)
class GcCandidate:
    """A cleanable block as the policy sees it."""

    token: object          # opaque block identity for the caller
    valid_bytes: int
    erase_count: int
    age_us: float = 0.0    # time since the block was written full


class _InstrumentedPolicy:
    """Optional victim-selection telemetry shared by every policy.

    Owners (a KAML log, the page FTL) assign ``policy.metrics``; each
    decision then records the chosen victim's relocation cost and wear so
    the GC ablations can compare policies from one registry export.
    """

    name = "abstract"
    metrics = None
    _victims_counter = lazy_instrument("counter", "gc.victims_chosen", policy="name")
    _valid_bytes_histogram = lazy_instrument("histogram", "gc.victim.valid_bytes", policy="name")
    _erase_count_histogram = lazy_instrument("histogram", "gc.victim.erase_count", policy="name")
    _pool_histogram = lazy_instrument("histogram", "gc.candidate_pool", policy="name")

    def _record_choice(
        self, victim: Optional[GcCandidate], pool_size: int
    ) -> Optional[GcCandidate]:
        if self.metrics is not None and victim is not None:
            self._victims_counter.inc()
            self._valid_bytes_histogram.observe(victim.valid_bytes)
            self._erase_count_histogram.observe(victim.erase_count)
            self._pool_histogram.observe(pool_size)
        return victim


class GreedyPolicy(_InstrumentedPolicy):
    """Minimize relocation work: pick the block with the least valid data."""

    name = "greedy"

    def choose(self, candidates: Sequence[GcCandidate]) -> Optional[GcCandidate]:
        if not candidates:
            return None
        victim = min(candidates, key=lambda c: (c.valid_bytes, c.erase_count))
        return self._record_choice(victim, len(candidates))


class CostBenefitPolicy(_InstrumentedPolicy):
    """LFS-style cost-benefit: benefit = age * (1 - u) / (1 + u)."""

    name = "cost-benefit"

    def __init__(self, block_bytes: int):
        if block_bytes <= 0:
            raise ValueError("block_bytes must be positive")
        self.block_bytes = block_bytes

    def choose(self, candidates: Sequence[GcCandidate]) -> Optional[GcCandidate]:
        if not candidates:
            return None

        def benefit(candidate: GcCandidate) -> float:
            utilization = min(1.0, candidate.valid_bytes / self.block_bytes)
            return (1.0 + candidate.age_us) * (1.0 - utilization) / (1.0 + utilization)

        return self._record_choice(max(candidates, key=benefit), len(candidates))


class WearAwarePolicy(_InstrumentedPolicy):
    """KAML's policy: low erase count *and* little valid data (Section IV-E).

    Both terms are normalised against the candidate pool and combined; the
    weight slightly favours relocation cost, with erase count as the
    wear-leveling tie-breaker that "spreads erases evenly across blocks".
    """

    name = "wear-aware"

    def __init__(self, valid_weight: float = 0.7, wear_weight: float = 0.3):
        if valid_weight < 0 or wear_weight < 0:
            raise ValueError("weights must be non-negative")
        if valid_weight + wear_weight == 0:
            raise ValueError("at least one weight must be positive")
        self.valid_weight = valid_weight
        self.wear_weight = wear_weight

    def choose(self, candidates: Sequence[GcCandidate]) -> Optional[GcCandidate]:
        if not candidates:
            return None
        max_valid = max(c.valid_bytes for c in candidates) or 1
        max_erase = max(c.erase_count for c in candidates) or 1

        def score(candidate: GcCandidate) -> float:
            return (
                self.valid_weight * candidate.valid_bytes / max_valid
                + self.wear_weight * candidate.erase_count / max_erase
            )

        return self._record_choice(min(candidates, key=score), len(candidates))
