"""Ablation: namespace-to-log QoS isolation (Section IV-B)."""

from repro.harness import format_table
from repro.harness.ablations import qos_isolation_ablation


def test_qos_isolation(run_once, emit):
    result = run_once(qos_isolation_ablation)
    emit(format_table(result["title"], result["headers"], result["rows"]))
    m = result["metrics"]

    # Dies suspend a neighbor's program for the victim's read, so read
    # isolation no longer depends on the log assignment: dedicated logs are
    # still the floor (idle chips), and shared logs sit within a suspend or
    # two of it instead of a page program above.  This is the guard on
    # read-priority dies: FIFO dies put shared at 3.4x (mean) and 4.8x (p95).
    for stat in ("mean", "p95"):
        assert m[f"{stat}/partitioned"] <= m[f"{stat}/shared"]
        assert m[f"{stat}/shared"] <= 1.15 * m[f"{stat}/partitioned"]
