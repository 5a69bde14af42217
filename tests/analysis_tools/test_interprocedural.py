"""Interprocedural engine: traces, the AST cache, and the pragma audit."""

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


def test_race_trace_names_both_processes():
    # The PR 5 read-vs-GC race, reintroduced as a fixture: the finding
    # must carry a call chain naming the reader and the writer process.
    violations = [
        v
        for v in run_lint([FIXTURES / "race_stale_read.py"])
        if v.rule == "KL-RACE001"
    ]
    assert violations
    trace = " -> ".join(violations[0].trace)
    assert "RaceDevice._read_process" in trace
    assert "RaceDevice._gc_process" in trace
    assert "<-races->" in trace
    assert "via:" in violations[0].render()


def test_race_message_names_write_site():
    violations = [
        v
        for v in run_lint([FIXTURES / "race_stale_read.py"])
        if v.rule == "KL-RACE001"
    ]
    message = violations[0].message
    assert "RaceDevice.mapping" in message
    assert "RaceDevice._gc_process" in message
    assert "no common lock" in message


def test_res001_sees_the_pins_of_the_module_that_owns_them():
    # KL-RES001 finds pins by method *name*: a rename in kaml/mapping.py
    # that the name tables do not follow would blind it without a sound.
    from repro.analysis_tools.core import load_modules
    from repro.analysis_tools.graph import Project, iter_project_functions
    from repro.analysis_tools.resourcerules import _own_events

    project = Project(load_modules([str(SRC / "kaml" / "mapping.py")]))
    pins = [
        event.delta
        for info in iter_project_functions(project)
        for event in _own_events(info)
        if event.kind == "pin"
    ]
    assert pins.count(+1) >= 1 and pins.count(-1) >= 1


def test_res_leak_reports_interprocedural_source():
    violations = [
        v for v in run_lint([FIXTURES / "res_leak.py"]) if v.rule == "KL-RES001"
    ]
    assert len(violations) == 3
    pin, nvram, nvram_fast = sorted(violations, key=lambda v: v.line)
    assert "_grab" in pin.message  # acquisition credited to the helper call
    assert "pin" in pin.message
    assert "nvram" in nvram.message
    # try_reserve + its contended wait is one reservation, not two.
    assert "holding 1 unreleased nvram" in nvram_fast.message
    assert "try_reserve" in nvram_fast.message


def test_sim002_trace_is_shortest_chain():
    violations = [
        v
        for v in run_lint([FIXTURES / "sim_transitive.py"])
        if v.rule == "KL-SIM002"
    ]
    assert len(violations) == 1
    assert violations[0].trace == (
        "DumpingMonitor.run",
        "DumpingMonitor._maybe_flush",
        "DumpingMonitor._dump",
    )


def test_deep_lock_cycle_needs_full_depth_expansion():
    violations = [
        v
        for v in run_lint([FIXTURES / "lock_deep_cycle.py"])
        if v.rule == "KL-LCK002"
    ]
    assert violations
    assert "Shuttle.a" in violations[0].message
    assert "Shuttle.b" in violations[0].message


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
    # The CI gate in one assertion: the production tree lints clean, and
    # a full interprocedural run stays well inside an interactive budget.
    clear_module_cache()
    start = time.monotonic()
    report = run_analysis([str(SRC)])
    elapsed = time.monotonic() - start
    assert report.violations == []
    assert report.module_count > 40
    assert elapsed < 60.0, f"whole-tree lint took {elapsed:.1f}s"


def test_attr_types_resolve_classes_indexed_later(tmp_path):
    """``self.x = Later()`` types ``x`` even when Later's module sorts
    after the holder's (``fault`` holds a ``kaml`` device): attr types
    are inferred once every class is indexed, not during the walk."""
    from repro.analysis_tools.core import load_modules
    from repro.analysis_tools.graph import Project

    (tmp_path / "a_holder.py").write_text(
        "from z_later import Later\n\n\n"
        "class Holder:\n"
        "    def __init__(self):\n"
        "        self.thing = Later()\n\n"
        "    def use(self):\n"
        "        self.thing.poke()\n"
    )
    (tmp_path / "z_later.py").write_text(
        "class Later:\n    def poke(self):\n        pass\n"
    )
    project = Project(load_modules([tmp_path]))
    use = next(uid for uid in project.functions if uid.endswith("::Holder.use"))
    callees = [site.callee for site in project.call_edges.get(use, ())]
    assert any(callee.endswith("::Later.poke") for callee in callees)
