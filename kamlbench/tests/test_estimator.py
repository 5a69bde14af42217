"""The spin-normalised host-time estimator."""

import pytest

from kamlbench.spin import (
    SPIN_REF_S,
    Spin,
    normalised_seconds,
    normalised_total,
    relative_spread,
)

SEGMENTS = 20
OPS_PER_SEGMENT = 5_000


def _rate(walls, spins):
    return SEGMENTS * OPS_PER_SEGMENT / normalised_total(walls, spins)


def test_reference_speed_is_identity():
    assert normalised_seconds(2.0, SPIN_REF_S, SPIN_REF_S) == pytest.approx(2.0)


def test_slow_neighbour_on_half_the_window_moves_the_estimate_under_3_percent():
    walls = [0.5] * SEGMENTS
    spins = [SPIN_REF_S] * (SEGMENTS + 1)
    quiet = _rate(walls, spins)
    # A neighbour slows the machine by 30 % for the second half: those
    # segments and every spin from the half-way point on run 1.3x longer.
    half = SEGMENTS // 2
    slow_walls = walls[:half] + [w * 1.3 for w in walls[half:]]
    slow_spins = spins[:half] + [s * 1.3 for s in spins[half:]]
    noisy = _rate(slow_walls, slow_spins)
    raw = SEGMENTS * OPS_PER_SEGMENT / sum(slow_walls)
    assert abs(noisy - quiet) / quiet < 0.03
    assert abs(raw - quiet) / quiet > 0.10  # what the estimator is for


def test_uniformly_slow_machine_is_normalised_away():
    walls = [0.8] * SEGMENTS
    spins = [SPIN_REF_S * 1.6] * (SEGMENTS + 1)
    assert _rate(walls, spins) == pytest.approx(SEGMENTS * OPS_PER_SEGMENT / (0.5 * SEGMENTS))


def test_every_segment_needs_both_spins():
    with pytest.raises(ValueError):
        normalised_total([0.5, 0.5], [SPIN_REF_S, SPIN_REF_S])


def test_relative_spread_is_iqr_over_median():
    assert relative_spread([10.0]) == 0.0
    assert relative_spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(3.0 / 10.0)


def test_spin_runs_and_repeats():
    spin = Spin()
    first, second = spin.run(), spin.run()
    assert first > 0 and second > 0
    # Same work both times: within a factor of three even on a busy box.
    assert max(first, second) / min(first, second) < 3.0
