"""``harness replay``, fed journals that ``prof --record-out`` captured."""

import io
import json

from repro.harness.__main__ import command_parser
from repro.harness.__main__ import main as harness_main
from repro.harness.prof_cli import run as run_prof
from repro.harness.trace_cli import run_replay

FAST_CAPTURE = [
    "--ops", "40", "--threads", "2", "--records", "30", "--key-space", "64",
]


def capture(path, extra=()):
    args = command_parser("prof").parse_args(
        FAST_CAPTURE + ["--record-out", path] + list(extra)
    )
    return run_prof(args, out=io.StringIO())


def replay(journal, extra, out=None):
    args = command_parser("replay").parse_args([journal] + list(extra))
    return run_replay(args, out=out if out is not None else io.StringIO())


def test_replay_json_report(tmp_path):
    captured = str(tmp_path / "cap.jsonl")
    capture(captured, ["--workload", "mixed"])
    report_path = tmp_path / "replay.json"
    replay(captured, ["--json-out", str(report_path)])
    on_disk = json.loads(report_path.read_text())
    assert on_disk["mode"] == "closed"
    assert on_disk["ops"] == on_disk["issues"]
    assert on_disk["latency_p99_us"] >= on_disk["latency_p50_us"]


def test_harness_dispatch_reaches_subcommands(tmp_path, capsys):
    path = str(tmp_path / "cap.jsonl")
    assert harness_main(["prof", *FAST_CAPTURE, "--record-out", path]) == 0
    assert harness_main(["replay", path, "--mode", "closed"]) == 0
    captured = capsys.readouterr().out
    assert "op journal: " in captured
    assert "Replay (closed-loop)" in captured


def test_replay_reports_the_shared_interpolated_percentile():
    """p50/p99 in a replay report mean what they mean in prof/SLO/kamlbench
    output: the linear-interpolation percentile, not round()-nearest-rank."""
    from repro.harness import trace_cli
    from repro.obs.metrics import percentile

    assert trace_cli.percentile is percentile
    assert percentile([1.0, 2.0, 3.0, 10.0], 0.5) == 2.5  # nearest-rank says 3.0
