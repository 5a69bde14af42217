"""The fig5 performance-baseline gate (benchmarks/compare_baseline.py)."""

import json

import pytest

from repro.harness.baseline import (
    DEFAULT_TOLERANCE,
    build_baseline,
    build_cluster_section,
    build_perf_section,
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


@pytest.fixture
def perf_artifact():
    return {
        "benchmark": "perf",
        "workloads": {
            "kernel": {
                "workload": "kernel", "ops": 25600, "sim_events": 76929,
                "events_per_op": 3.0, "wall_s": 0.2,
                "events_per_sec": 400000.0, "ops_per_sec": 128000.0,
            },
            "mixed": {
                "workload": "mixed", "ops": 2000, "sim_events": 26657,
                "events_per_op": 13.3, "wall_s": 0.3,
                "events_per_sec": 90000.0, "ops_per_sec": 6700.0,
            },
        },
    }


def test_build_baseline_merges_perf_section(fig5_result, perf_artifact):
    baseline = build_baseline(fig5_result, perf_artifact)
    perf = baseline["perf"]
    assert perf["tolerance"] == DEFAULT_TOLERANCE
    assert perf["workloads"]["kernel"]["sim_events"] == 76929.0
    # Only the gated, deterministic field is pinned: wall-clock numbers
    # mean nothing on another machine and stay out of the baseline.
    assert perf["workloads"]["mixed"] == {"sim_events": 26657.0}


def test_perf_wall_clock_drop_is_not_gated(fig5_result, perf_artifact):
    slow = json.loads(json.dumps(perf_artifact))
    slow["workloads"]["kernel"]["events_per_sec"] = 1000.0  # another machine
    baseline = build_baseline(fig5_result, perf_artifact)
    assert compare(build_baseline(fig5_result, slow), baseline)[0] == []


def test_perf_event_bloat_fails(fig5_result, perf_artifact):
    baseline = build_baseline(fig5_result, perf_artifact)
    current = build_baseline(fig5_result, perf_artifact)
    # 30% more sim events for the same work: scheduler overhead crept in.
    current["perf"]["workloads"]["mixed"]["sim_events"] = 26657 * 1.3
    failures, _report = compare(current, baseline)
    assert any("mixed/sim_events" in f for f in failures)


def test_perf_event_reduction_is_not_a_regression(fig5_result, perf_artifact):
    baseline = build_baseline(fig5_result, perf_artifact)
    current = build_baseline(fig5_result, perf_artifact)
    current["perf"]["workloads"]["mixed"]["sim_events"] = 20000.0
    assert compare(current, baseline)[0] == []


def test_perf_missing_workload_fails(fig5_result, perf_artifact):
    baseline = build_baseline(fig5_result, perf_artifact)
    current = build_baseline(fig5_result, perf_artifact)
    del current["perf"]["workloads"]["mixed"]
    failures, _report = compare(current, baseline)
    assert any("missing" in f for f in failures)


def test_markdown_summary_includes_perf_rows(fig5_result, perf_artifact):
    baseline = build_baseline(fig5_result, perf_artifact)
    summary = markdown_summary(baseline, baseline)
    assert "perf: kernel/sim_events" in summary
    assert "perf: mixed/sim_events" in summary
    assert "FAIL" not in summary


def test_cli_merges_perf_artifact_on_rebaseline(
    fig5_result, perf_artifact, tmp_path, capsys
):
    artifact = tmp_path / "artifact.json"
    perf_path = tmp_path / "perf.json"
    baseline_path = tmp_path / "baseline.json"
    artifact.write_text(json.dumps(fig5_result))
    perf_path.write_text(json.dumps(perf_artifact))

    assert main([
        "--artifact", str(artifact), "--baseline", str(baseline_path),
        "--perf-artifact", str(perf_path), "--rebaseline",
    ]) == 0
    written = json.loads(baseline_path.read_text())
    assert written["perf"]["workloads"]["kernel"]["sim_events"] == 76929.0

    # Gate passes against itself, including the perf section.
    assert main([
        "--artifact", str(artifact), "--baseline", str(baseline_path),
        "--perf-artifact", str(perf_path),
    ]) == 0
    assert "perf gate passed" in capsys.readouterr().out

    # An event-bloated perf artifact trips the gate.
    bloated = json.loads(json.dumps(perf_artifact))
    bloated["workloads"]["kernel"]["sim_events"] = 76929 * 2
    perf_path.write_text(json.dumps(bloated))
    assert main([
        "--artifact", str(artifact), "--baseline", str(baseline_path),
        "--perf-artifact", str(perf_path),
    ]) == 1


@pytest.fixture
def cluster_artifact():
    return {
        "ok": True,
        "shards": [4],
        "seeds": [1, 2, 3],
        "ops_per_sec": 5000.0,
        "rebalance_p99_us": 800.0,
        "cells": [],
    }


def test_build_cluster_section_pins_only_gated_fields(cluster_artifact):
    section = build_cluster_section(cluster_artifact)
    assert section["tolerance"] == DEFAULT_TOLERANCE
    assert section["shards"] == [4]
    assert section["seeds"] == [1, 2, 3]
    assert section["ops_per_sec"] == 5000.0
    assert section["rebalance_p99_us"] == 800.0
    # The matrix cells are run detail, not baseline material.
    assert "cells" not in section
    assert "ok" not in section


def test_cluster_throughput_drop_fails(fig5_result, cluster_artifact):
    baseline = build_baseline(fig5_result, cluster_artifact=cluster_artifact)
    current = build_baseline(fig5_result, cluster_artifact=cluster_artifact)
    current["cluster"]["ops_per_sec"] = 4000.0  # -20%
    failures, _report = compare(current, baseline)
    assert any("cluster" in f and "ops_per_sec" in f for f in failures)


def test_cluster_throughput_gain_is_not_a_regression(
    fig5_result, cluster_artifact
):
    baseline = build_baseline(fig5_result, cluster_artifact=cluster_artifact)
    current = build_baseline(fig5_result, cluster_artifact=cluster_artifact)
    current["cluster"]["ops_per_sec"] = 9000.0
    assert compare(current, baseline)[0] == []


def test_cluster_rebalance_p99_rise_fails(fig5_result, cluster_artifact):
    baseline = build_baseline(fig5_result, cluster_artifact=cluster_artifact)
    current = build_baseline(fig5_result, cluster_artifact=cluster_artifact)
    current["cluster"]["rebalance_p99_us"] = 1000.0  # +25%
    failures, _report = compare(current, baseline)
    assert any("rebalance_p99_us" in f for f in failures)


def test_cluster_rebalance_p99_drop_is_not_a_regression(
    fig5_result, cluster_artifact
):
    baseline = build_baseline(fig5_result, cluster_artifact=cluster_artifact)
    current = build_baseline(fig5_result, cluster_artifact=cluster_artifact)
    current["cluster"]["rebalance_p99_us"] = 400.0
    assert compare(current, baseline)[0] == []


def test_cluster_section_missing_from_current_run_fails(
    fig5_result, cluster_artifact
):
    baseline = build_baseline(fig5_result, cluster_artifact=cluster_artifact)
    current = build_baseline(fig5_result)  # no cluster artifact this run
    failures, _report = compare(current, baseline)
    assert any("cluster" in f and "missing" in f for f in failures)


def test_markdown_summary_includes_cluster_rows(fig5_result, cluster_artifact):
    baseline = build_baseline(fig5_result, cluster_artifact=cluster_artifact)
    summary = markdown_summary(baseline, baseline)
    assert "cluster: ops_per_sec" in summary
    assert "cluster: rebalance_p99_us" in summary
    assert "FAIL" not in summary


def test_cli_merges_cluster_artifact_on_rebaseline(
    fig5_result, cluster_artifact, tmp_path, capsys
):
    artifact = tmp_path / "artifact.json"
    cluster_path = tmp_path / "cluster.json"
    baseline_path = tmp_path / "baseline.json"
    artifact.write_text(json.dumps(fig5_result))
    cluster_path.write_text(json.dumps(cluster_artifact))

    assert main([
        "--artifact", str(artifact), "--baseline", str(baseline_path),
        "--cluster-artifact", str(cluster_path), "--rebaseline",
    ]) == 0
    written = json.loads(baseline_path.read_text())
    assert written["cluster"]["ops_per_sec"] == 5000.0

    # Gate passes against itself, including the cluster section.
    assert main([
        "--artifact", str(artifact), "--baseline", str(baseline_path),
        "--cluster-artifact", str(cluster_path),
    ]) == 0
    assert "perf gate passed" in capsys.readouterr().out

    # A slower serving tier trips the gate.
    slow = dict(cluster_artifact, ops_per_sec=3000.0)
    cluster_path.write_text(json.dumps(slow))
    assert main([
        "--artifact", str(artifact), "--baseline", str(baseline_path),
        "--cluster-artifact", str(cluster_path),
    ]) == 1


def test_checked_in_baseline_is_valid():
    """benchmarks/baseline.json must stay loadable and self-consistent."""
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[2] / "benchmarks/baseline.json"
    baseline = json.loads(path.read_text())
    assert baseline["experiment"] == "fig5_bandwidth"
    assert baseline["bandwidth_mb_s"], "baseline pins no bandwidth metrics"
    assert baseline["latency_p99_us"], "baseline pins no latency metrics"
    assert all(v > 0 for v in baseline["bandwidth_mb_s"].values())
    perf = baseline.get("perf", {})
    assert perf.get("workloads"), "baseline pins no perf workloads"
    for row in perf["workloads"].values():
        assert row["sim_events"] > 0
    cluster = baseline.get("cluster", {})
    assert cluster.get("ops_per_sec", 0) > 0, "baseline pins no cluster tier"
    assert cluster.get("rebalance_p99_us", 0) > 0
    failures, _ = compare(baseline, baseline)
    assert failures == []
