"""Tests for the conflict model (Section V-D-2) and latency stats."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    expected_conflicts_uniform,
    simulate_conflicts,
    summarize,
)


def test_no_conflicts_with_single_request():
    assert expected_conflicts_uniform(1, keys=100, keys_per_lock=1) == pytest.approx(0.0)


def test_conflicts_grow_with_lock_coarseness():
    """The paper's conclusion: as l increases, conflicts increase."""
    n, k = 64, 1024
    values = [
        expected_conflicts_uniform(n, k, keys_per_lock=l) for l in (1, 4, 16, 64)
    ]
    assert values == sorted(values)
    assert values[-1] > values[0]


def test_one_lock_for_everything_conflicts_all_but_one():
    n, k = 32, 64
    # Every request shares the single lock: N-1 conflicts.
    assert expected_conflicts_uniform(n, k, keys_per_lock=k) == pytest.approx(n - 1)


def test_analytic_matches_monte_carlo_uniform():
    n, k, l = 32, 128, 8
    analytic = expected_conflicts_uniform(n, k, l)
    simulated = simulate_conflicts(n, k, l, trials=4000, seed=1)
    assert simulated == pytest.approx(analytic, rel=0.08)


def test_validation():
    with pytest.raises(ValueError):
        expected_conflicts_uniform(10, 0, 1)
    with pytest.raises(ValueError):
        expected_conflicts_uniform(10, 10, 0)


@settings(max_examples=30)
@given(
    st.integers(1, 64),
    st.integers(1, 256),
    st.integers(1, 32),
)
def test_conflicts_bounded(n, k, l):
    value = expected_conflicts_uniform(n, k, l)
    assert -1e-9 <= value <= n - 1 + 1e-9


# -- latency stats ---------------------------------------------------------------

def test_summary_empty():
    summary = summarize([])
    assert summary.count == 0
    assert summary.mean_us == 0.0


def test_summary_basic():
    summary = summarize([1.0, 2.0, 3.0, 4.0, 100.0])
    assert summary.count == 5
    assert summary.mean_us == pytest.approx(22.0)
    assert summary.p50_us == 3.0
    assert summary.min_us == 1.0
    assert summary.max_us == 100.0


def test_summary_percentiles_ordered():
    values = list(range(1000, 0, -1))
    summary = summarize([float(v) for v in values])
    assert summary.p50_us <= summary.p95_us <= summary.p99_us <= summary.max_us
