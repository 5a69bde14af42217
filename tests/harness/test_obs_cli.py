"""The ``python -m repro.harness obs`` observability driver."""

import io
import json

from repro.harness.__main__ import command_parser
from repro.harness.__main__ import main as harness_main
from repro.harness.obs_cli import run as run_obs


def run(extra_args, out=None):
    args = command_parser("obs").parse_args(extra_args)
    return run_obs(args, out=out if out is not None else io.StringIO())


def test_smoke_run_reports_full_span_tree():
    out = io.StringIO()
    result = run(["--ops", "40", "--threads", "2", "--interval-us", "200"], out=out)
    spans = result["summary"]["spans"]
    # The whole two-phase Put pipeline plus the Get path must be present.
    for name in (
        "store.put", "store.get", "kaml.put", "put.phase1", "put.ack",
        "put.nvram_pin", "put.phase2", "log.append", "put.install",
    ):
        assert name in spans, f"span {name!r} missing from the obs summary"
    # Puts acked == puts completed: the drain let phase 2/3 finish.
    assert spans["kaml.put"]["count"] == spans["put.phase2"]["count"]
    text = out.getvalue()
    assert "Trace summary" in text
    assert "[obs t=" in text  # the live dashboard printed at least one line
    assert " suspensions=" in text  # ... with the dies' suspension tallies


def test_slo_breaches_are_detected_and_dumped():
    result = run(["--ops", "30", "--threads", "2", "--slo-put-us", "0.001"])
    assert result["breaches"], "sub-microsecond SLO must breach"
    dump = result["breaches"][0]
    assert dump["breach"]["op"] == "put"
    assert dump["events"], "breach dump must carry flight-recorder events"


def test_exports_are_written(tmp_path):
    trace_path = tmp_path / "trace.json"
    flight_path = tmp_path / "flight.jsonl"
    breach_path = tmp_path / "breach.json"
    run([
        "--ops", "20", "--threads", "2", "--slo-put-us", "0.001",
        "--trace-out", str(trace_path),
        "--flight-out", str(flight_path),
        "--breach-out", str(breach_path),
    ])
    payload = json.loads(trace_path.read_text())
    assert {row["ph"] for row in payload["traceEvents"]} >= {"M", "X"}
    assert all(json.loads(line) for line in flight_path.read_text().splitlines())
    assert json.loads(breach_path.read_text())


def test_seed_changes_the_workload():
    a = run(["--ops", "30", "--seed", "1"])
    b = run(["--ops", "30", "--seed", "1"])
    c = run(["--ops", "30", "--seed", "2"])
    assert a["elapsed_us"] == b["elapsed_us"]  # same seed: same history
    assert a["elapsed_us"] != c["elapsed_us"]  # different mix of ops


def test_dispatch_through_harness_main(capsys):
    assert harness_main(["obs", "--ops", "10", "--threads", "1"]) == 0
    assert "Trace summary" in capsys.readouterr().out


def test_obs_listed_in_harness_help(capsys):
    assert harness_main(["--list"]) == 0
    assert "obs" in capsys.readouterr().out


def test_json_mode_prints_exactly_one_document():
    out = io.StringIO()
    result = run(["--ops", "10", "--threads", "1", "--json"], out=out)
    assert json.loads(out.getvalue())["elapsed_us"] == result["elapsed_us"]
