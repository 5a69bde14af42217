"""The fig5 performance-baseline gate (benchmarks/compare_baseline.py)."""

import json

import pytest

from repro.harness.baseline import (
    DEFAULT_TOLERANCE,
    build_baseline,
    compare,
    main,
    markdown_summary,
)


@pytest.fixture
def fig5_result():
    return {
        "metrics": {"get/512/0.1": 100.0, "put-upd/512": 200.0},
        "slo": {
            "slo.put.us{namespace=1}": {
                "count": 57.0, "mean": 40.0, "p50": 38.0,
                "p99": 80.0, "p999": 90.0,
            },
        },
    }


def test_build_baseline_extracts_bandwidth_and_p99(fig5_result):
    baseline = build_baseline(fig5_result)
    assert baseline["bandwidth_mb_s"] == {
        "get/512/0.1": 100.0, "put-upd/512": 200.0
    }
    assert baseline["latency_p99_us"] == {"slo.put.us{namespace=1}": 80.0}
    assert baseline["tolerance"] == DEFAULT_TOLERANCE


def test_identical_runs_pass(fig5_result):
    baseline = build_baseline(fig5_result)
    failures, report = compare(baseline, baseline)
    assert failures == []
    assert len(report) == 3  # two bandwidth lines + one latency line


def test_bandwidth_drop_beyond_tolerance_fails(fig5_result):
    baseline = build_baseline(fig5_result)
    current = build_baseline(fig5_result)
    current["bandwidth_mb_s"]["get/512/0.1"] = 80.0  # -20%
    failures, _report = compare(current, baseline)
    assert len(failures) == 1
    assert "get/512/0.1" in failures[0]


def test_bandwidth_gain_is_not_a_regression(fig5_result):
    baseline = build_baseline(fig5_result)
    current = build_baseline(fig5_result)
    current["bandwidth_mb_s"]["get/512/0.1"] = 300.0  # 3x faster: fine
    failures, _report = compare(current, baseline)
    assert failures == []


def test_latency_rise_beyond_tolerance_fails(fig5_result):
    baseline = build_baseline(fig5_result)
    current = build_baseline(fig5_result)
    current["latency_p99_us"]["slo.put.us{namespace=1}"] = 100.0  # +25%
    failures, _report = compare(current, baseline)
    assert len(failures) == 1
    assert "p99" in failures[0]


def test_latency_drop_is_not_a_regression(fig5_result):
    baseline = build_baseline(fig5_result)
    current = build_baseline(fig5_result)
    current["latency_p99_us"]["slo.put.us{namespace=1}"] = 40.0
    assert compare(current, baseline)[0] == []


def test_missing_metric_fails(fig5_result):
    baseline = build_baseline(fig5_result)
    current = build_baseline(fig5_result)
    del current["bandwidth_mb_s"]["put-upd/512"]
    failures, _report = compare(current, baseline)
    assert any("missing" in f for f in failures)


def test_within_tolerance_drift_passes(fig5_result):
    baseline = build_baseline(fig5_result)
    current = build_baseline(fig5_result)
    current["bandwidth_mb_s"]["get/512/0.1"] = 90.0   # -10%
    current["latency_p99_us"]["slo.put.us{namespace=1}"] = 88.0  # +10%
    assert compare(current, baseline)[0] == []


def test_tolerance_override(fig5_result):
    baseline = build_baseline(fig5_result)
    current = build_baseline(fig5_result)
    current["bandwidth_mb_s"]["get/512/0.1"] = 90.0  # -10%
    assert compare(current, baseline, tolerance=0.05)[0] != []


def test_cli_pass_fail_and_rebaseline(fig5_result, tmp_path, capsys):
    artifact = tmp_path / "artifact.json"
    baseline_path = tmp_path / "baseline.json"
    artifact.write_text(json.dumps(fig5_result))

    # --rebaseline seeds the baseline from the artifact.
    assert main([
        "--artifact", str(artifact), "--baseline", str(baseline_path),
        "--rebaseline",
    ]) == 0
    assert json.loads(baseline_path.read_text())["experiment"] == "fig5_bandwidth"

    # Same artifact vs its own baseline: gate passes.
    assert main([
        "--artifact", str(artifact), "--baseline", str(baseline_path),
    ]) == 0
    assert "perf gate passed" in capsys.readouterr().out

    # Regressed artifact: gate fails with a rebaseline hint.
    regressed = dict(fig5_result)
    regressed["metrics"] = dict(fig5_result["metrics"], **{"get/512/0.1": 10.0})
    artifact.write_text(json.dumps(regressed))
    assert main([
        "--artifact", str(artifact), "--baseline", str(baseline_path),
    ]) == 1
    err = capsys.readouterr().err
    assert "PERF GATE FAILED" in err
    assert "make rebaseline" in err


def test_markdown_summary_lists_every_fig5_row(fig5_result):
    baseline = build_baseline(fig5_result)
    current = build_baseline(fig5_result)
    current["bandwidth_mb_s"]["put-upd/512"] = 100.0  # -50%
    summary = markdown_summary(current, baseline)
    assert "| bandwidth: get/512/0.1 | 100.000 | 100.000 | +0.0% | ok |" in summary
    assert "| bandwidth: put-upd/512 | 100.000 | 200.000 | -50.0% | FAIL |" in summary
    assert "| p99-latency: slo.put.us{namespace=1} |" in summary


def test_checked_in_baseline_is_valid():
    """benchmarks/baseline.json must stay loadable and self-consistent."""
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[2] / "benchmarks/baseline.json"
    baseline = json.loads(path.read_text())
    assert baseline["experiment"] == "fig5_bandwidth"
    assert baseline["bandwidth_mb_s"], "baseline pins no bandwidth metrics"
    assert baseline["latency_p99_us"], "baseline pins no latency metrics"
    assert all(v > 0 for v in baseline["bandwidth_mb_s"].values())
    # Only the paper shapes: what kamlbench measures lives in BENCH_<pr>.json.
    assert set(baseline) == {"experiment", "tolerance", "bandwidth_mb_s", "latency_p99_us"}
    failures, _ = compare(baseline, baseline)
    assert failures == []
