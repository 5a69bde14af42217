"""A scaled-down run of everything: all four workloads, all three passes.

``--seconds 0.2`` is the issue's ``--scale 0.02``: op counts shrink, rigs
and loads do not.  Regime guards are reported but only enforced at full
scale, so they are relaxed here by construction.
"""

import json

from kamlbench.cli import load_contract, main
from kamlbench.driver import TRACED_FRACTION


def test_full_run_emits_every_metric_of_the_contract(tmp_path, capsys):
    out = tmp_path / "doc.json"
    code = main([
        "run", "--seed", "5", "--seconds", "0.2",
        "--out", str(out), "--trace-dir", str(tmp_path / "traces"),
    ])
    printed = capsys.readouterr().out
    assert code == 0, printed
    contract = load_contract()
    document = json.loads(out.read_text())
    assert set(document["workloads"]) == {w["name"] for w in contract["workloads"]}
    for name, report in document["workloads"].items():
        assert report["ops_failed"] == 0 and report["ops_attempted"] > 0
        assert set(report["end_to_end"]) == {m["name"] for m in contract["end_to_end"]}
        assert set(report["per_layer"]) == {m["name"] for m in contract["per_layer"]}
        assert all(value > 0 for value in report["end_to_end"].values()), name
        layer = report["per_layer"]
        for suffix in (".sim_share", "host_self_share"):
            total = sum(value for key, value in layer.items() if key.endswith(suffix))
            assert abs(total - 1.0) < 0.01, (name, suffix, total)
        spans = (tmp_path / "traces" / f"{name}.jsonl").read_text().splitlines()
        assert json.loads(spans[0])["workload"] == name
        assert len(spans) - 1 == round(report["ops"] * TRACED_FRACTION)
        for metric in contract["end_to_end"] + contract["per_layer"]:
            assert f"  {metric['name']} " in printed


def test_driver_invocation_ends_with_the_contract_line(capsys):
    code = main(["run", "--workload", "ycsb-b-hot", "--seed", "6", "--seconds", "0.2",
                 "--trace", "0"])
    assert code == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    contract = load_contract()
    assert list(result["metrics"]) == [m["name"] for m in contract["end_to_end"]]
    for metric in contract["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
