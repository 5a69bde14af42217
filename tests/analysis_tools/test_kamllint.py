"""kamllint: the real tree is clean, seeded fixtures are not, and the
engine audits its own pragmas."""

from pathlib import Path

import pytest

from repro.analysis_tools import UnknownRuleError, run_analysis

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def lint(path, rules=None):
    return run_analysis([str(path)], rules=rules).violations


def test_production_tree_is_clean(whole_tree_lint):
    report, _ = whole_tree_lint
    assert report.violations == []
    assert report.stale_pragmas == []


@pytest.mark.parametrize(
    ("fixture", "rule"),
    [
        ("det_wallclock.py", "KL-DET001"),
        ("det_global_random.py", "KL-DET002"),
        ("det_set_iteration.py", "KL-DET003"),
        ("sim_blocking.py", "KL-SIM001"),
        ("bare_assert.py", "KL-INV001"),
        ("fault_peek.py", "KL-FLT001"),
    ],
)
def test_seeded_fixture_triggers_rule(fixture, rule):
    assert rule in {v.rule for v in lint(FIXTURES / fixture)}


def test_allow_pragma_suppresses_findings():
    assert lint(FIXTURES / "allow_pragma.py") == []


def test_rules_filter_restricts_output():
    violations = lint(FIXTURES / "sim_blocking.py", rules={"KL-SIM001"})
    assert violations and all(v.rule == "KL-SIM001" for v in violations)
    assert lint(FIXTURES / "sim_blocking.py", rules={"KL-INV001"}) == []


def test_violations_sorted_and_renderable():
    violations = lint(FIXTURES)
    keys = [(v.path, v.line, v.col, v.rule) for v in violations]
    assert keys == sorted(keys)
    for violation in violations:
        rendered = violation.render()
        assert violation.rule in rendered
        assert f":{violation.line}:" in rendered
        as_dict = violation.to_dict()
        assert as_dict["rule"] == violation.rule
        assert as_dict["line"] == violation.line


def test_set_iteration_flags_both_literal_and_inferred_local():
    violations = lint(FIXTURES / "det_set_iteration.py")
    lines = {v.line for v in violations if v.rule == "KL-DET003"}
    assert len(lines) == 2


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
    # Deleted rules: the four that needed the call graph, and the ones
    # whose seeded violations another gate already caught.  A grant still
    # naming one suppresses nothing and must be reported, not honoured.
    deleted = [
        f"KL-{rule}"
        for rule in ("RES001", "RACE001", "SIM002", "LCK002", "CTX001", "LCK001", "OBS001")
    ]
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
        run_analysis([str(FIXTURES)], rules={"KL-NOPE", "KL-INV001"})
    assert excinfo.value.unknown == ["KL-NOPE"]
