"""Unit tests for key-request distributions."""

import pytest

from repro.workloads import (
    LatestChooser,
    UniformChooser,
    ZipfianChooser,
)
from repro.workloads.keydist import _zeta_cached


def test_uniform_covers_space():
    chooser = UniformChooser(100, seed=1)
    keys = {chooser.next_key() for _ in range(5000)}
    assert min(keys) >= 0
    assert max(keys) < 100
    assert len(keys) == 100


def test_uniform_deterministic_with_seed():
    a = [UniformChooser(1000, seed=9).next_key() for _ in range(50)]
    b = [UniformChooser(1000, seed=9).next_key() for _ in range(50)]
    assert a == b


def test_uniform_rejects_empty():
    with pytest.raises(ValueError):
        UniformChooser(0)


def test_zipfian_is_skewed():
    chooser = ZipfianChooser(1000, seed=2)
    counts = {}
    for _ in range(20000):
        key = chooser.next_key()
        counts[key] = counts.get(key, 0) + 1
    top = sorted(counts.values(), reverse=True)
    # The hottest key should take a few percent of the traffic; with 1000
    # uniform keys it would take 0.1%.
    assert top[0] / 20000 > 0.02
    # And the head dominates the tail.
    assert sum(top[:10]) > 5 * sum(top[-10:])


def test_zipfian_in_range():
    chooser = ZipfianChooser(500, seed=3)
    for _ in range(2000):
        assert 0 <= chooser.next_key() < 500


def test_zipfian_unscrambled_prefers_low_ranks():
    chooser = ZipfianChooser(1000, seed=5, scrambled=False)
    low = sum(1 for _ in range(10000) if chooser.next_key() < 10)
    assert low > 2000  # rank-0..9 get a large share


def _zipf_probabilities(n, theta):
    zetan = sum(1.0 / (i ** theta) for i in range(1, n + 1))
    return [1.0 / ((rank + 1) ** theta) / zetan for rank in range(n)]


def test_zipfian_head_mass_matches_the_pmf():
    # The Gray method inverts a continuous approximation of the CDF, so
    # it carries a small per-rank bias and cannot pass a strict per-rank
    # chi-squared at this n.  The share of traffic on the hot head, which
    # is what the YCSB workloads model, does match the exact pmf.
    n, theta, draws = 200, 0.99, 40000
    chooser = ZipfianChooser(n, seed=17, theta=theta, scrambled=False)
    hits = sum(1 for _ in range(draws) if chooser.next_key() < 10)
    expected = sum(_zipf_probabilities(n, theta)[:10])
    assert abs(hits / draws - expected) < 0.03


def test_zeta_cache_extension_is_bit_identical():
    theta = 0.99
    fresh = sum(1.0 / (i ** theta) for i in range(1, 301))
    _zeta_cached(100, theta)  # seed the prefix cache
    assert _zeta_cached(300, theta) == fresh
    assert _zeta_cached(300, theta) == fresh  # exact-hit path


def test_latest_prefers_recent():
    chooser = LatestChooser(1000, seed=6)
    recent = sum(1 for _ in range(10000) if chooser.next_key() >= 990)
    assert recent > 2000


def test_latest_grow_shifts_head():
    chooser = LatestChooser(10, seed=7)
    chooser.grow(1000)
    keys = [chooser.next_key() for _ in range(2000)]
    assert max(keys) >= 990
