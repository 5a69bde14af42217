"""kamllint static passes: the real tree is clean, seeded fixtures are not."""

from pathlib import Path

import pytest

from repro.analysis_tools import run_lint

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def rules_for(fixture_name):
    violations = run_lint([FIXTURES / fixture_name])
    return {v.rule for v in violations}


def test_production_tree_is_clean():
    assert run_lint([SRC]) == []


@pytest.mark.parametrize(
    ("fixture", "rule"),
    [
        ("det_wallclock.py", "KL-DET001"),
        ("det_global_random.py", "KL-DET002"),
        ("det_set_iteration.py", "KL-DET003"),
        ("ctx_drop.py", "KL-CTX001"),
        ("lock_unpaired.py", "KL-LCK001"),
        ("lock_cycle.py", "KL-LCK002"),
        ("sim_blocking.py", "KL-SIM001"),
        ("bare_assert.py", "KL-INV001"),
        ("fault_peek.py", "KL-FLT001"),
        ("obs_unregistered_span.py", "KL-OBS001"),
        ("oplog_unregistered_span.py", "KL-OBS001"),
        ("race_stale_read.py", "KL-RACE001"),
        ("res_leak.py", "KL-RES001"),
        ("sim_transitive.py", "KL-SIM002"),
        ("lock_deep_cycle.py", "KL-LCK002"),
    ],
)
def test_seeded_fixture_triggers_rule(fixture, rule):
    assert rule in rules_for(fixture)


@pytest.mark.parametrize(
    "fixture",
    [
        "race_locked.py",
        "res_paired.py",
        "sim_transitive_clean.py",
    ],
)
def test_paired_clean_fixture_stays_silent(fixture):
    assert run_lint([FIXTURES / fixture]) == []


def test_obs_rule_flags_names_and_tags_but_not_dynamic_names():
    violations = [
        v
        for v in run_lint([FIXTURES / "obs_unregistered_span.py"])
        if v.rule == "KL-OBS001"
    ]
    # Two unregistered span names plus one unregistered component tag;
    # the registered names and the dynamically-built name stay silent.
    assert len(violations) == 3
    messages = " ".join(v.message for v in violations)
    assert "kaml.mystery_phase" in messages
    assert "pipeline.secret_wait" in messages
    assert "warp_drive" in messages


def test_allow_pragma_suppresses_findings():
    assert run_lint([FIXTURES / "allow_pragma.py"]) == []


def test_rules_filter_restricts_output():
    violations = run_lint([FIXTURES / "sim_blocking.py"], rules={"KL-SIM001"})
    assert violations and all(v.rule == "KL-SIM001" for v in violations)
    assert run_lint([FIXTURES / "sim_blocking.py"], rules={"KL-LCK001"}) == []


def test_violations_sorted_and_renderable():
    violations = run_lint([FIXTURES])
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
    violations = run_lint([FIXTURES / "det_set_iteration.py"])
    lines = {v.line for v in violations if v.rule == "KL-DET003"}
    assert len(lines) == 2


def test_lck001_sees_the_zero_event_spelling_once():
    flagged = [
        v.message.split("`")[1]
        for v in run_lint([FIXTURES / "lock_unpaired.py"], rules={"KL-LCK001"})
    ]
    # try_acquire + its contended wait (yielded or delegated to) is one
    # acquisition; a bare try_acquire is still an acquisition.
    assert sorted(flagged) == ["flush", "flush_delegated", "flush_fast", "poke"]
