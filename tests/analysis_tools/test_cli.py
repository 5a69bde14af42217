"""kamllint CLI: exit codes, JSON output, rule listing."""

import json
from pathlib import Path

from repro.analysis_tools.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def test_clean_tree_exits_zero(capsys):
    # Every finding in this fixture is suppressed by a pragma it uses.
    assert main([str(FIXTURES / "allow_pragma.py")]) == 0
    assert "kamllint: clean" in capsys.readouterr().out


def test_fixture_corpus_exits_one_with_rule_ids(capsys):
    assert main([str(FIXTURES)]) == 1
    out = capsys.readouterr().out
    assert "KL-DET001" in out
    assert "violation(s)" in out


def test_json_output_parses(capsys):
    assert main(["--format", "json", str(FIXTURES / "bare_assert.py")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == len(payload["violations"]) > 0
    assert payload["violations"][0]["rule"] == "KL-INV001"


def test_rules_filter_and_unknown_rule(capsys):
    assert main(["--rules", "KL-INV001", str(FIXTURES / "det_wallclock.py")]) == 0
    capsys.readouterr()
    assert main(["--rules", "KL-BOGUS", str(FIXTURES)]) == 2


def test_unknown_rule_names_the_offender(capsys):
    assert main(["--rules", "KL-NOPE,KL-INV001", str(FIXTURES)]) == 2
    err = capsys.readouterr().err
    assert "KL-NOPE" in err
    assert "KL-INV001" not in err


def test_github_format_emits_workflow_annotations(capsys):
    assert main(["--format", "github", str(FIXTURES / "sim_blocking.py")]) == 1
    out = capsys.readouterr().out
    assert "::error file=" in out
    assert "title=KL-SIM001" in out


def test_json_out_writes_report_artifact(tmp_path, capsys):
    report = tmp_path / "kamllint.json"
    assert main(["--json-out", str(report), str(FIXTURES / "bare_assert.py")]) == 1
    capsys.readouterr()
    payload = json.loads(report.read_text())
    assert payload["count"] == len(payload["violations"]) > 0
    assert all(v["rule"] == "KL-INV001" for v in payload["violations"])
    assert "stale_pragmas" in payload


def test_stale_pragma_is_reported_but_advisory(tmp_path, capsys):
    # The CLI reports a dead grant and still exits 0; the tier-1 lint of
    # the production tree is what fails on one.
    stale = tmp_path / "stale.py"
    stale.write_text("# kamllint: allow[KL-INV001] nothing here asserts\nx = 1\n")
    assert main([str(stale)]) == 0
    assert "1 stale pragma(s)" in capsys.readouterr().out


def test_no_paths_is_usage_error():
    assert main([]) == 2


def test_list_rules_covers_every_rule(capsys):
    assert main(["--list-rules"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == [
        "KL-DET001", "KL-DET002", "KL-DET003", "KL-FLT001", "KL-INV001", "KL-SIM001",
    ]
