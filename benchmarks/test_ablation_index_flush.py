"""Ablations: mapping-table structure and the NVRAM flush timer."""

from repro.harness import format_table
from repro.harness.ablations import flush_timer_ablation, index_structure_ablation


def test_index_structure_ablation(run_once, emit):
    result = run_once(index_structure_ablation)
    emit(format_table(result["title"], result["headers"], result["rows"]))
    m = result["metrics"]

    # Hash structures beat the sorted table on point lookups — the cost
    # a namespace pays for range-scan support (Section IV-C flexibility).
    assert m["mb_s/bucket"] > m["mb_s/sorted"]
    assert m["mb_s/open"] > m["mb_s/sorted"]
    # All structures deliver working Get service.
    for structure in ("bucket", "open", "sorted"):
        assert m[f"mb_s/{structure}"] > 0


def test_flush_timer_ablation(run_once, emit):
    result = run_once(flush_timer_ablation)
    emit(format_table(result["title"], result["headers"], result["rows"]))
    m = result["metrics"]

    # The timer measures quiescence: a trickle whose gap is under it keeps
    # its page open and fills it; one whose gap is over it pads a page per
    # record.  48 records of 5 chunks are 3.75 pages.
    records, full_pages = 48, 4
    for timeout_us, gap_us, _lag, pages, _wasted in result["rows"]:
        assert pages == (full_pages if gap_us < timeout_us else records)
    # What the longer timer costs: committed data sits in NVRAM longer
    # after the trickle stops.
    assert m["drain-lag/200.0/100.0"] < m["drain-lag/1000.0/100.0"] < m["drain-lag/5000.0/100.0"]
