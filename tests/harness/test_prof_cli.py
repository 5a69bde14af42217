"""The ``python -m repro.harness prof`` kamlprof driver."""

import io
import json

import pytest

from repro.harness.__main__ import command_parser
from repro.harness.__main__ import main as harness_main
from repro.harness.prof_cli import run as run_prof
from repro.obs.profile import COMPONENTS

FAST = [
    "--ops", "60", "--threads", "2", "--records", "40",
    "--key-space", "64", "--interval-us", "500",
]


def run(extra_args, out=None):
    args = command_parser("prof").parse_args(FAST + list(extra_args))
    return run_prof(args, out=out if out is not None else io.StringIO())


def test_fractions_sum_to_one_in_every_bucket():
    out = io.StringIO()
    report = run([], out=out)
    assert report["requests"], "a profiled run must attribute some requests"
    for op, by_namespace in report["requests"].items():
        for namespace, bucket in by_namespace.items():
            total = sum(
                row["fraction"] for row in bucket["components"].values()
            )
            assert total == pytest.approx(1.0, abs=1e-6), (op, namespace)
            for component in bucket["components"]:
                assert component in COMPONENTS
    text = out.getvalue()
    assert "kamlprof breakdown" in text
    assert "Device utilization" in text
    assert "Telemetry" in text


def test_same_seed_is_bit_identical_and_seed_matters():
    a = run(["--seed", "7", "--no-timeseries"])
    b = run(["--seed", "7", "--no-timeseries"])
    c = run(["--seed", "8", "--no-timeseries"])
    dump = lambda report: json.dumps(report, sort_keys=True)
    assert dump(a) == dump(b)
    assert dump(a) != dump(c)


def test_artifacts_are_written(tmp_path):
    flame = tmp_path / "prof.folded"
    report_path = tmp_path / "prof.json"
    series_path = tmp_path / "timeseries.json"
    run([
        "--flame-out", str(flame),
        "--json-out", str(report_path),
        "--timeseries-out", str(series_path),
    ])
    lines = flame.read_text().splitlines()
    assert lines
    for line in lines:
        stack, weight = line.rsplit(" ", 1)
        assert stack and ";" not in f" {weight}"
        assert int(weight) > 0  # integer nanoseconds
    payload = json.loads(report_path.read_text())
    assert payload["workload"] == "ycsb-b"
    assert payload["recorder"]["recorded"] >= payload["recorder"]["retained"]
    series = json.loads(series_path.read_text())
    assert series["samples"], "the sampler must have ticked"
    assert set(series["samples"][0]) >= {"t_us", "firmware.queue"}


def test_no_timeseries_skips_the_sampler_entirely(tmp_path):
    series_path = tmp_path / "timeseries.json"
    out = io.StringIO()
    run(["--no-timeseries", "--timeseries-out", str(series_path)], out=out)
    assert not series_path.exists()
    assert "Telemetry" not in out.getvalue()


def test_mixed_workload_profiles_the_store_surface():
    report = run(["--workload", "mixed"])
    assert set(report["requests"]) <= {"store.get", "store.put"}
    assert report["requests"], "mixed run must record store requests"


def test_harness_dispatch_and_listing(capsys):
    assert harness_main(["prof", *FAST, "--no-timeseries"]) == 0
    assert "kamlprof breakdown" in capsys.readouterr().out
    harness_main(["--list"])
    assert "prof" in capsys.readouterr().out


def test_step_summary_markdown_is_appended(tmp_path, monkeypatch):
    summary_path = tmp_path / "summary.md"
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary_path))
    run([])
    text = summary_path.read_text()
    assert "kamlprof latency breakdown" in text
    assert "| component |" in text or "component" in text
