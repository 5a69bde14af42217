"""The lint engine: the AST cache, the pragma audit, rule-id validation."""

import time
from pathlib import Path

import pytest

from repro.analysis_tools import (
    UnknownRuleError,
    clear_module_cache,
    run_analysis,
    run_lint,
)
from repro.analysis_tools.core import PARSE_COUNTS

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def test_each_file_parsed_exactly_once_per_run():
    clear_module_cache()
    run_lint([FIXTURES])
    assert PARSE_COUNTS
    assert all(count == 1 for count in PARSE_COUNTS.values())
    # A second run over unchanged files reuses the cache entirely.
    run_lint([FIXTURES])
    assert all(count == 1 for count in PARSE_COUNTS.values())


def test_stale_pragma_audit_flags_dead_grants(tmp_path):
    target = tmp_path / "dead_grant.py"
    target.write_text(
        "# kamllint: allow[KL-INV001] suppresses nothing\n"
        "# kamllint: allow[KL-NOSUCH] unknown rules are always stale\n"
        "x = 1\n"
    )
    report = run_analysis([str(target)])
    assert report.violations == []
    stale_rules = {s.rule for s in report.stale_pragmas}
    assert stale_rules == {"KL-INV001", "KL-NOSUCH"}


def test_pragma_naming_a_deleted_rule_is_stale(tmp_path):
    # The four call-graph rules are gone; a grant still naming one
    # suppresses nothing and must be reported, not silently honoured.
    deleted = [f"KL-{rule}" for rule in ("RES001", "RACE001", "SIM002", "LCK002")]
    target = tmp_path / "deleted_rules.py"
    target.write_text(
        "".join(f"x = 1  # kamllint: allow[{rule}] left behind\n" for rule in deleted)
    )
    report = run_analysis([str(target)])
    assert report.violations == []
    assert [(s.rule, s.line) for s in report.stale_pragmas] == [
        (rule, line) for line, rule in enumerate(deleted, start=1)
    ]
    assert all("not in the catalogue" in s.message for s in report.stale_pragmas)


def test_live_pragma_is_not_stale(tmp_path):
    target = tmp_path / "live_grant.py"
    target.write_text(
        "# kamllint: allow[KL-INV001] fixture exercises the grant\n"
        "assert True\n"
    )
    report = run_analysis([str(target)])
    assert report.violations == []
    assert report.stale_pragmas == []


def test_unknown_rule_raises_before_any_work():
    with pytest.raises(UnknownRuleError) as excinfo:
        run_lint([FIXTURES], rules={"KL-NOPE", "KL-INV001"})
    assert excinfo.value.unknown == ["KL-NOPE"]


def test_whole_tree_smoke_within_budget():
    # A full run over the production tree lints clean and stays well
    # inside an interactive budget.
    clear_module_cache()
    start = time.monotonic()
    report = run_analysis([str(SRC)])
    elapsed = time.monotonic() - start
    assert report.violations == []
    assert report.module_count > 40
    assert elapsed < 60.0, f"whole-tree lint took {elapsed:.1f}s"
