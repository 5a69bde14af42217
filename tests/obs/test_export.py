"""The shared linear-interpolation percentile that every export uses."""

import pytest

from repro.obs.metrics import percentile


# ---------------------------------------------------------------------------
# The shared linear-interpolation percentile
# ---------------------------------------------------------------------------


def test_percentile_interpolates_between_ranks():
    values = [10.0, 20.0, 30.0, 40.0]
    assert percentile(values, 0.50) == pytest.approx(25.0)
    assert percentile(values, 0.25) == pytest.approx(17.5)


def test_percentile_edges_and_empty():
    values = [1.0, 2.0, 3.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 1.0) == 3.0
    assert percentile(values, -0.5) == 1.0
    assert percentile(values, 1.5) == 3.0
    assert percentile([], 0.99) == 0.0
    assert percentile([7.0], 0.99) == 7.0


def test_percentile_tail_interpolates_toward_max():
    # Nearest-rank p99 of 100 points would land exactly on the 99th
    # value; interpolation moves it toward the max.
    values = [float(i) for i in range(100)]
    assert percentile(values, 0.99) == pytest.approx(98.01)
