"""``harness record`` / ``replay`` / ``diff`` and the perf-gate diff hook."""

import io
import json

from repro.harness import baseline as baseline_mod
from repro.harness.__main__ import command_parser
from repro.harness.__main__ import main as harness_main
from repro.harness.diff_cli import run as run_diff
from repro.harness.trace_cli import run_record, run_replay
from repro.obs.oplog import load_journal

FAST_RECORD = [
    "--ops", "40", "--threads", "2", "--records", "30", "--key-space", "64",
]


def record(extra, out=None):
    args = command_parser("record").parse_args(FAST_RECORD + list(extra))
    return run_record(args, out=out if out is not None else io.StringIO())


def replay(journal, extra, out=None):
    args = command_parser("replay").parse_args([journal] + list(extra))
    return run_replay(args, out=out if out is not None else io.StringIO())


def test_record_replay_round_trip_is_exact(tmp_path):
    captured = str(tmp_path / "cap.jsonl.gz")
    recaptured = str(tmp_path / "cap2.jsonl.gz")
    out = io.StringIO()
    result = record(["--workload", "ycsb-b", "--out", captured], out=out)
    assert result["rows"] > 0 and result["dropped"] == 0
    assert "Journal summary" in out.getvalue()

    report = replay(
        captured,
        ["--mode", "closed", "--threads", "1", "--capture-out", recaptured],
    )
    assert report["ops"] == report["issues"] > 0

    key = lambda rows: [
        (r["op"], r["ns"], r["key_hash"], r["size"])
        for r in rows if r["layer"] == "ssd"
    ]
    assert key(load_journal(recaptured)) == key(load_journal(captured))


def test_record_synthetic_workload(tmp_path):
    path = str(tmp_path / "synth.jsonl")
    result = record(
        ["--workload", "synth-hotkey", "--out", path, "--seed", "3"]
    )
    rows = load_journal(path)
    assert len(rows) == result["rows"] == 40
    # Synthetic journals replay open-loop.
    report = replay(path, ["--mode", "open", "--speed", "8"])
    assert report["ops"] == 40


def test_replay_json_report(tmp_path):
    captured = str(tmp_path / "cap.jsonl")
    record(["--workload", "mixed", "--out", captured])
    report_path = tmp_path / "replay.json"
    replay(captured, ["--json-out", str(report_path)])
    on_disk = json.loads(report_path.read_text())
    assert on_disk["mode"] == "closed"
    assert on_disk["ops"] == on_disk["issues"]
    assert on_disk["latency_p99_us"] >= on_disk["latency_p50_us"]


def test_diff_cli_on_report_files(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(
        {"fractions": {"kaml.get/ns=1/nand_wait": 0.1}}
    ))
    b.write_text(json.dumps(
        {"fractions": {"kaml.get/ns=1/nand_wait": 0.5}}
    ))
    out = io.StringIO()
    json_out = tmp_path / "diff.json"
    args = command_parser("diff").parse_args(
        [str(a), str(b), "--json-out", str(json_out)]
    )
    report = run_diff(args, out=out)
    assert report["significant"] is True
    assert report["suspects"][0]["owner"] == "flash.chip"
    assert "flash.chip" in out.getvalue()
    assert json.loads(json_out.read_text())["significant"] is True


def test_step_summary_written_for_diff(tmp_path, monkeypatch):
    summary = tmp_path / "summary.md"
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"fractions": {"kaml.get/ns=1/gc_wait": 0.0}}))
    b.write_text(json.dumps({"fractions": {"kaml.get/ns=1/gc_wait": 0.3}}))
    args = command_parser("diff").parse_args([str(a), str(b)])
    run_diff(args, out=io.StringIO())
    assert "kaml.gc" in summary.read_text()


def test_harness_dispatch_reaches_subcommands(tmp_path, capsys):
    path = str(tmp_path / "synth.jsonl")
    assert harness_main([
        "record", "--workload", "synth-diurnal", "--ops", "20",
        "--key-space", "32", "--out", path,
    ]) == 0
    assert harness_main(["replay", path, "--mode", "closed"]) == 0
    captured = capsys.readouterr().out
    assert "synthetic journal" in captured
    assert "Replay (closed-loop)" in captured


def test_perf_gate_failure_ships_diff_report(tmp_path, monkeypatch):
    baseline = {
        "tolerance": 0.15,
        "bandwidth_mb_s": {"get/1": 100.0},
        "latency_p99_us": {},
        "breakdown": {
            "tolerance_pp": 0.10,
            "fractions": {"kaml.get/ns=1/nand_wait": 0.05},
        },
    }
    artifact = {"metrics": {"get/1": 50.0}, "slo": {}}
    prof = {
        "workload": "mixed", "seed": 7,
        "requests": {"kaml.get": {"1": {
            "count": 1,
            "components": {"nand_wait": {"us": 30.0, "fraction": 0.5}},
        }}},
    }
    baseline_path = tmp_path / "baseline.json"
    artifact_path = tmp_path / "fig5.json"
    prof_path = tmp_path / "prof.json"
    baseline_path.write_text(json.dumps(baseline))
    artifact_path.write_text(json.dumps(artifact))
    prof_path.write_text(json.dumps(prof))
    diff_out = tmp_path / "artifacts" / "diff_report.json"
    summary = tmp_path / "summary.md"
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))

    code = baseline_mod.main([
        "--artifact", str(artifact_path),
        "--perf-artifact", str(tmp_path / "missing_perf.json"),
        "--prof-artifact", str(prof_path),
        "--baseline", str(baseline_path),
        "--diff-out", str(diff_out),
    ])
    assert code == 1  # bandwidth halved: the gate fails...
    diff = json.loads(diff_out.read_text())
    # ...and the shipped diff attributes the breakdown shift.
    assert diff["suspects"][0]["owner"] == "flash.chip"
    assert "Perf-gate differential attribution" in summary.read_text()


def test_replay_reports_the_shared_interpolated_percentile():
    """p50/p99 in a replay report mean what they mean in prof/SLO/kamlbench
    output: the linear-interpolation percentile, not round()-nearest-rank."""
    from repro.harness import trace_cli
    from repro.obs.metrics import percentile

    assert trace_cli.percentile is percentile
    assert percentile([1.0, 2.0, 3.0, 10.0], 0.5) == 2.5  # nearest-rank says 3.0
