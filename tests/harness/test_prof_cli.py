"""The ``python -m repro.harness prof`` seeded-run driver."""

import io
import json

import pytest

from repro.harness import prof_cli
from repro.harness.__main__ import command_parser
from repro.harness.__main__ import main as harness_main
from repro.harness.prof_cli import run as run_prof
from repro.harness.trace_cli import run_replay
from repro.obs.oplog import load_journal
from repro.obs.profile import COMPONENTS

FAST = [
    "--ops", "60", "--threads", "2", "--records", "40", "--key-space", "64",
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


def test_same_seed_is_bit_identical_and_seed_matters():
    a = run(["--seed", "7"])
    b = run(["--seed", "7"])
    c = run(["--seed", "8"])
    dump = lambda report: json.dumps(report, sort_keys=True)
    assert dump(a) == dump(b)
    assert dump(a) != dump(c)


def test_artifacts_are_written(tmp_path):
    flame = tmp_path / "prof.folded"
    report_path = tmp_path / "prof.json"
    run(["--flame-out", str(flame), "--json-out", str(report_path)])
    lines = flame.read_text().splitlines()
    assert lines
    for line in lines:
        stack, weight = line.rsplit(" ", 1)
        assert stack and ";" not in f" {weight}"
        assert int(weight) > 0  # integer nanoseconds
    payload = json.loads(report_path.read_text())
    assert payload["workload"] == "ycsb-b"
    assert payload["recorder"]["recorded"] >= payload["recorder"]["retained"]
    assert payload["breaches"] == []  # no SLO armed
    assert payload["capture"]["oplog"] is None  # no journal armed


def test_mixed_workload_profiles_the_store_surface():
    report = run(["--workload", "mixed"])
    assert set(report["requests"]) <= {"store.get", "store.put"}
    assert report["requests"], "mixed run must record store requests"


def test_harness_dispatch_and_listing(capsys):
    assert harness_main(["prof", *FAST]) == 0
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


def test_record_out_replays_to_the_identical_ssd_sequence(tmp_path):
    """capture -> closed-loop single-lane replay -> re-capture: the
    device-layer op sequence comes back exactly."""
    captured = str(tmp_path / "cap.jsonl.gz")
    recaptured = str(tmp_path / "recap.jsonl.gz")
    out = io.StringIO()
    report = run(["--record-out", captured], out=out)
    oplog = report["capture"]["oplog"]
    assert oplog["recorded"] > 0 and oplog["dropped"] == 0
    assert f"op journal: {oplog['recorded']} recorded" in out.getvalue()

    replay_args = command_parser("replay").parse_args(
        [captured, "--mode", "closed", "--threads", "1", "--capture-out", recaptured]
    )
    replayed = run_replay(replay_args, out=io.StringIO())
    assert replayed["ops"] == replayed["issues"] > 0

    def key(rows):
        return [
            (r["op"], r["ns"], r["key_hash"], r["size"])
            for r in rows if r["layer"] == "ssd"
        ]

    rows = load_journal(captured)
    assert len(rows) == oplog["recorded"]
    # Both layers are captured; the device sees the load phase's Puts.
    assert {(r["layer"], r["op"]) for r in rows} >= {("ssd", "put"), ("store", "get")}
    assert key(load_journal(recaptured)) == key(rows)


def test_slo_breaches_reach_the_json_report(tmp_path):
    report_path = tmp_path / "prof.json"
    out = io.StringIO()
    run(
        ["--workload", "mixed", "--slo-put-us", "0.001", "--json-out", str(report_path)],
        out=out,
    )
    payload = json.loads(report_path.read_text())
    assert payload["breaches"], "a sub-microsecond SLO must breach"
    dump = payload["breaches"][0]
    assert dump["breach"]["op"] == "put"
    assert dump["breach"]["threshold_us"] == 0.001
    assert dump["events"], "a breach dump carries the flight-recorder window"
    text = out.getvalue()
    assert "SLO breaches: " in text
    assert "events in the ±2 ms window" in text


def test_trace_out_writes_a_loadable_chrome_trace(tmp_path):
    trace_path = tmp_path / "trace.json"
    report = run(["--trace-out", str(trace_path)])
    payload = json.loads(trace_path.read_text())
    phases = [row["ph"] for row in payload["traceEvents"]]
    assert set(phases) >= {"M", "X"}
    assert phases.count("X") <= report["recorder"]["retained"]


def test_a_run_that_raises_still_closes_its_journal(tmp_path, monkeypatch):
    """A fault mid-workload must not leave a half-written gzip behind."""
    path = str(tmp_path / "cap.jsonl.gz")
    real_prepare = prof_cli.prepare_workload

    def prepare_then_fail(name, env, *args, **kwargs):
        measured_phase = real_prepare(name, env, *args, **kwargs)

        def fault():
            yield env.timeout(300.0)
            raise RuntimeError("injected mid-workload fault")

        def failing_phase():
            env.process(fault())
            measured_phase()

        return failing_phase

    monkeypatch.setattr(prof_cli, "prepare_workload", prepare_then_fail)
    with pytest.raises(RuntimeError, match="injected") as excinfo:
        run(["--record-out", path])
    # excinfo keeps the failed run's frames (and so its journal object)
    # alive: only an explicit close can have finished the gzip stream.
    rows = load_journal(path)
    assert excinfo.value is not None
    assert rows, "the load phase was journaled before the fault"
    assert [row["op_id"] for row in rows] == list(range(1, len(rows) + 1))
