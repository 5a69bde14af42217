"""Every committed ``BENCH_<n>.json`` stays a readable record.

``make bench-diff`` and the trajectory compare records across changes, so a
record that lost a workload or a metric, or that counts failed ops,
breaks every later comparison with it.  The contract is what
``BENCHMARK.json`` declares; nothing here imports the benchmark's code.
"""

import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
CONTRACT = json.loads((REPO / "BENCHMARK.json").read_text())
RECORDS = sorted(REPO.glob("BENCH_*.json"), key=lambda path: int(path.stem.split("_")[1]))


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_covers_the_contract_with_no_failed_op(path):
    record = json.loads(path.read_text())
    assert record["schema"] == 1
    workloads = [workload["name"] for workload in CONTRACT["workloads"]]
    assert sorted(record["workloads"]) == sorted(workloads)
    for name in workloads:
        row = record["workloads"][name]
        for section in ("end_to_end", "per_layer"):
            missing = [m["name"] for m in CONTRACT[section] if m["name"] not in row[section]]
            assert not missing, (name, section, missing)
        assert row["ops_failed"] == 0, (name, row["errors"])
