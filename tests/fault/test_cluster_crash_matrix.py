"""Cluster 2PC crash cells: coordinator cuts must stay all-or-nothing.

The matrix's cluster cells run with the device cells in
``test_crash_matrix.py``; these cut each coordinator point at its first
occurrence and check how recovery resolved it.
"""

import pytest

from repro.cluster import key_shard_slot
from repro.fault.harness import group_keys, run_scenario
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

