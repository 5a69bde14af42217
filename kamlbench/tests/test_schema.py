"""BENCHMARK.json against the benchmark contract's limits."""

import re

from kamlbench.cli import EXACT, load_contract

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def test_top_level_keys_and_command():
    contract = load_contract()
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert contract["paths"] == ["kamlbench"]
    assert all(PATH.match(path) and not path.startswith("/") for path in contract["paths"])
    assert 1 <= len(contract["command"]) <= 32
    assert all(len(part) <= 200 and ".." not in part and not part.startswith("/")
               for part in contract["command"])
    assert isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60


def test_counts_names_and_units():
    contract = load_contract()
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = []
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")


def test_setup_metric_has_the_largest_bound():
    end_to_end = {m["name"]: m for m in load_contract()["end_to_end"]}
    setup = end_to_end["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in end_to_end.values())
    assert set(EXACT) <= set(end_to_end)


def test_the_issue_s_workloads_and_layer_table():
    contract = load_contract()
    assert [w["name"] for w in contract["workloads"]] == [
        "ycsb-b-cold", "ycsb-b-hot", "put-gc", "cluster-2pc",
    ]
    assert len(contract["end_to_end"]) == 9
    assert len(contract["per_layer"]) == 62
    layers = {m["name"].split(".", 1)[0] for m in contract["per_layer"]}
    assert layers == {"sim", "flash", "ssd", "kaml", "cache", "cluster", "obs", "bench"}
