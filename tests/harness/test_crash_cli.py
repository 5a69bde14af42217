"""The `python -m repro.harness crash` crash-consistency CLI.

CI always invokes the harness with ``--report`` and a populated
``GITHUB_STEP_SUMMARY``, so both artifact paths are exercised
end-to-end here: the JSON report must serialize (no live recorder or
metrics-registry objects leaking into ``json.dump``) and the step
summary must survive failure text containing markdown-table
metacharacters.
"""

import json

from repro.harness.__main__ import main as harness_main
from repro.harness.crash_cli import summary as _step_summary
from repro.harness.reporting import md_cell as _md_cell


def main(argv):
    return harness_main(["crash", *argv])


def test_list_points(capsys):
    assert main(["--list-points"]) == 0
    out = capsys.readouterr().out
    assert "put.before_install" in out


def test_report_written_end_to_end(tmp_path, capsys, monkeypatch):
    """A passing cell writes a loadable JSON report and a step summary."""
    report_path = tmp_path / "crash-divergence.json"
    summary_path = tmp_path / "step-summary.md"
    summary_path.write_text("")
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary_path))

    code = main(
        [
            "--point", "put.before_install",
            "--seeds", "1",
            "--ops", "40",
            "--report", str(report_path),
        ]
    )
    assert code == 0, capsys.readouterr().out

    with open(report_path) as handle:
        payload = json.load(handle)
    assert payload["ok"] is True
    assert payload["points"] == ["put.before_install"]
    assert payload["cells"], "report must carry the matrix cells"
    for cell in payload["cells"]:
        assert "recorder" not in cell
        assert "metrics" not in cell

    summary = summary_path.read_text()
    assert "Crash-consistency matrix" in summary
    assert "put.before_install" in summary


def test_step_summary_escapes_table_metacharacters():
    report = {
        "ok": False,
        "seeds": [7],
        "points": ["log.mid_flush"],
        "cells": [
            {
                "ok": False,
                "seed": 7,
                "point": "log.mid_flush",
                "hit": 3,
                "failures": [
                    "group [1000, 1001, 1002]: torn batch | partial "
                    "visibility " + "x" * 300,
                ],
            }
        ],
    }
    summary = _step_summary(report)
    row = [line for line in summary.splitlines() if "log.mid_flush" in line][0]
    # Escaped pipes and truncation keep the row a valid 5-column table row
    # (layer | seed | crash point | hit | result).
    assert row.startswith("| device |")
    assert "\\|" in row
    assert row.count("|") - row.count("\\|") == 6
    assert "…" in row


def test_md_cell_flattens_newlines():
    assert _md_cell("a\nb|c") == "a b\\|c"


# -- regressions: the crash CLI used to drop its own arguments ---------------


def test_every_flag_reaches_the_engine_for_both_layers(monkeypatch, capsys):
    """--ops and the flash-fault rates used to stop at the device cells."""
    from repro.harness import crash_cli

    seen = {}

    def fake_matrix(seeds, **kwargs):
        seen.update(kwargs, seeds=seeds)
        return {"ok": True, "seeds": seeds, "points": kwargs["points"], "cells": []}

    monkeypatch.setattr(crash_cli, "run_matrix", fake_matrix)
    assert main([
        "--matrix", "--seeds", "4", "--ops", "7", "--cluster-shards", "4",
        "--program-fail-rate", "0.1", "--erase-fail-rate", "0.05",
    ]) == 0
    assert seen["ops_per_writer"] == 7 and seen["shards"] == 4
    assert (seen["program_fail_rate"], seen["erase_fail_rate"]) == (0.1, 0.05)
    assert any(p.startswith("cluster.") for p in seen["points"])  # one call, both layers


def test_flash_fault_rates_reach_cluster_cells():
    from repro.fault import FaultPlan, run_scenario

    cell = run_scenario(
        FaultPlan(), seed=1, ops_per_writer=12, shards=2,
        program_fail_rate=0.2, erase_fail_rate=0.2,
    )
    assert cell["ok"], cell["failures"]
    assert cell["ops"] == 4 * 12  # --ops reaches the cluster workload too
    assert cell["metrics"].total("fault.flash.injected") > 0


def test_repro_hint_is_built_from_the_failing_cell():
    from repro.harness.crash_cli import repro_hint

    # A failing counting-pass cell has no point: never print "--point None".
    assert repro_hint({"point": None, "seed": 3, "shards": 4}) == (
        "python -m repro.harness crash --matrix --seeds 3 --cluster-shards 4"
    )
    assert repro_hint({"point": "log.mid_flush", "seed": 2}) == (
        "python -m repro.harness crash --point log.mid_flush --seeds 2"
    )


def test_counting_cells_of_two_layers_do_not_share_a_dump_name(tmp_path):
    from repro.harness.reporting import write_flight_dumps

    class Recorder:
        def write_jsonl(self, path):
            with open(path, "w") as handle:
                handle.write("{}\n")

    failing = {"ok": False, "seed": 1, "point": None, "recorder": Recorder()}
    written = write_flight_dumps(
        [failing, dict(failing, shards=2), dict(failing, ok=True)], str(tmp_path)
    )
    assert [path.rsplit("/", 1)[1] for path in written] == [
        "flight-device-seed1-counting.jsonl",
        "flight-shards2-seed1-counting.jsonl",
    ]
