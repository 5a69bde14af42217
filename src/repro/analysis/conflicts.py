"""The locking-granularity conflict model (Section V-D-2).

The paper reduces lock contention to balls-into-bins: K keys are divided
into pages of l keys, each protected by one lock; N concurrent updates
target key i with probability p_i.  The expected number of requests that
contend for some page lock is::

    E[conflicting requests] = N - (number of distinct pages hit)
                            = N - sum_over_pages (1 - (1 - P_page)^N)

where ``P_page`` is the probability a request lands on that page (the
sum of its keys' probabilities).  For the uniform case ``P_page = l/K``.

(The paper prints the per-page miss term with a per-key probability;
the formula here carries the page-level probability, which is what the
derivation requires — the two agree for l = 1 and the uniform shape is
identical.)
"""

from __future__ import annotations

import random


def expected_conflicts_uniform(requests: int, keys: int, keys_per_lock: int) -> float:
    """Closed form for uniformly distributed keys."""
    if keys < 1:
        raise ValueError("keys must be >= 1")
    if keys_per_lock < 1:
        raise ValueError("keys_per_lock must be >= 1")
    full_pages, remainder = divmod(keys, keys_per_lock)
    page_probability = min(1.0, keys_per_lock / keys)
    expected_hit_pages = full_pages * (1.0 - (1.0 - page_probability) ** requests)
    if remainder:
        expected_hit_pages += 1.0 - (1.0 - remainder / keys) ** requests
    return requests - expected_hit_pages


def simulate_conflicts(
    requests: int,
    keys: int,
    keys_per_lock: int,
    trials: int = 2000,
    seed: int = 3,
) -> float:
    """Monte-Carlo cross-check of the analytic model."""
    rng = random.Random(seed)
    total_conflicts = 0
    for _ in range(trials):
        picks = [rng.randrange(keys) for _ in range(requests)]
        pages_hit = {key // keys_per_lock for key in picks}
        total_conflicts += requests - len(pages_hit)
    return total_conflicts / trials
