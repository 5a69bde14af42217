"""The whole-tree lint stays complete and inside an interactive budget."""


def test_whole_tree_smoke_within_budget(whole_tree_lint):
    report, elapsed = whole_tree_lint
    assert report.violations == []
    assert report.module_count > 40
    assert elapsed < 60.0, f"whole-tree lint took {elapsed:.1f}s"
