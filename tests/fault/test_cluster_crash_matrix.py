"""Cluster 2PC crash matrix: coordinator cuts must stay all-or-nothing."""

import pytest

from repro.cluster import key_shard_slot
from repro.fault.harness import group_keys, run_matrix, run_scenario
from repro.fault.plan import CLUSTER_CRASH_POINTS, FaultPlan


@pytest.mark.parametrize("num_shards", [2, 4, 8])
def test_group_keys_straddle_shards(num_shards):
    """Every exclusive key group must be a genuine cross-shard batch."""
    for keys in group_keys(num_shards):
        slots = {key_shard_slot(key, num_shards) for key in keys}
        assert len(slots) >= 2


def test_counting_pass_reaches_every_coordinator_point():
    profile = run_scenario(FaultPlan(), seed=1, shards=2)
    assert profile["ok"], profile["failures"]
    assert not profile["crashed"]
    for point in CLUSTER_CRASH_POINTS:
        assert profile["hits"].get(point, 0) > 0, point
    assert profile["txns"] > 0  # cross-shard puts actually ran 2PC


@pytest.mark.parametrize("point", list(CLUSTER_CRASH_POINTS))
def test_coordinator_cut_recovers_all_or_nothing(point):
    """Cut the rack at the decision boundary; the shadow model must agree.

    ``after_prepare`` recovers by presumed abort (the put happened
    nowhere); ``mid_commit`` finishes the decided commit on the
    stragglers (the put happened everywhere).  Either way the exclusive
    key groups expose any torn batch.
    """
    cell = run_scenario(FaultPlan(point=point, hit=1), seed=1)
    assert cell["ok"], cell["failures"]
    assert cell["crashed"]
    assert cell["fired"]["point"] == point
    if point == "cluster.2pc.after_prepare":
        assert cell["recovered_aborted"] >= 1
    else:
        assert cell["recovered_committed"] >= 1


def test_cluster_matrix_single_seed_is_green():
    report = run_matrix([2], shards=2)
    assert report["ok"], [
        cell["failures"] for cell in report["cells"] if not cell["ok"]
    ]
    assert report["points"] == list(CLUSTER_CRASH_POINTS)
    armed = [cell for cell in report["cells"] if cell["point"] is not None]
    assert len(armed) == len(CLUSTER_CRASH_POINTS)
    assert all(cell["crashed"] for cell in armed)
