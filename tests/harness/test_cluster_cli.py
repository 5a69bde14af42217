"""The ``python -m repro.harness cluster`` serving-tier CLI.

CI invokes the CLI with ``--json-out`` and a populated
``GITHUB_STEP_SUMMARY``, so both artifact paths are exercised here: the
JSON report must serialize (no live flight recorder leaking into
``json.dump``) and the step summary must stay a valid markdown table
even for failure text with metacharacters.
"""

import json

from repro.harness.__main__ import main as harness_main
from repro.harness.cluster_cli import summary as _step_summary
from repro.harness.reporting import md_cell as _md_cell


def main(argv):
    return harness_main(["cluster", *argv])


def test_cell_matrix_end_to_end(tmp_path, capsys, monkeypatch):
    """One (2-shard, 1-seed) cell: verdict, JSON artifact, step summary."""
    json_path = tmp_path / "cluster.json"
    summary_path = tmp_path / "step-summary.md"
    summary_path.write_text("")
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary_path))

    code = main([
        "--shards", "2",
        "--seeds", "1",
        "--json-out", str(json_path),
    ])
    assert code == 0, capsys.readouterr().out

    payload = json.loads(json_path.read_text())
    assert payload["ok"] is True
    assert payload["shards"] == [2]
    assert payload["seeds"] == [1]
    assert payload["ops_per_sec"] > 0
    assert payload["rebalance_p99_us"] > 0
    assert payload["cells"], "report must carry the matrix cells"
    for cell in payload["cells"]:
        assert "recorder" not in cell
        assert cell["rebalances"] >= 1  # the autobalancer migrated mid-run
        assert cell["migrations"], "migration plan must be recorded"
        assert cell["total_ops"] > 0
        for row in cell["tenants"]:
            assert row["ops"] == (
                row["puts"] + row["group_puts"] + row["gets"] + row["deletes"]
            )
        # Group puts over consecutive keys in a hashed namespace straddle
        # shards, so the host-side coordinator ran.
        assert sum(row["group_puts"] for row in cell["tenants"]) > 0

    summary = summary_path.read_text()
    assert "Cluster serving-tier matrix" in summary
    assert "aggregate:" in summary


def test_bad_shard_list_is_rejected(capsys):
    try:
        main(["--shards", "two"])
    except SystemExit as exc:
        assert "--shards" in str(exc)
    else:
        raise AssertionError("expected SystemExit for a non-integer list")


def test_step_summary_escapes_table_metacharacters():
    report = {
        "ok": False,
        "shards": [2],
        "seeds": [7],
        "ops_per_sec": 0.0,
        "rebalance_p99_us": 0.0,
        "cells": [
            {
                "ok": False,
                "shards": 2,
                "seed": 7,
                "ops_per_sec": 0.0,
                "rebalances": 0,
                "rebalance_p99_us": 0.0,
                "total_sheds": 0,
                "failures": [
                    "hot-homed[3]: expected ('hot', 3, 1) | got None " + "x" * 300,
                ],
            }
        ],
    }
    summary = _step_summary(report)
    row = [line for line in summary.splitlines() if "FAIL" in line][0]
    assert "\\|" in row
    # Escaped pipes keep the row a valid 7-column table row.
    assert row.count("|") - row.count("\\|") == 8
    assert "…" in row


def test_md_cell_flattens_newlines():
    assert _md_cell("a\nb|c") == "a b\\|c"
