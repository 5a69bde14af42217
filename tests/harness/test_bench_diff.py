"""benchmarks/bench_diff.py: two committed kamlbench records side by side."""

import importlib.util
import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
spec = importlib.util.spec_from_file_location("bench_diff", REPO / "benchmarks" / "bench_diff.py")
bench_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_diff)


@pytest.fixture
def root(tmp_path):
    """BENCHMARK.json plus a committed record (BENCH_18.json unless said
    otherwise) copied as PR 1 and a doctored PR 2."""
    (tmp_path / "BENCHMARK.json").write_text((REPO / "BENCHMARK.json").read_text())

    def doctor(scaled, seed=1, base=18, seconds=10.0):
        record = json.loads((REPO / f"BENCH_{base}.json").read_text())
        (tmp_path / "BENCH_1.json").write_text(json.dumps(record))
        doctored = json.loads(json.dumps(record))
        doctored["seed"] = seed
        doctored["seconds"] = seconds
        for (workload, metric), factor in scaled.items():
            doctored["workloads"][workload]["end_to_end"][metric] *= factor
        (tmp_path / "BENCH_2.json").write_text(json.dumps(doctored))
        return ["1", "2", "--root", str(tmp_path)]

    return doctor


def test_fewer_events_and_host_noise_pass_when_declared(root, capsys):
    argv = root({("ycsb-b-cold", "sim_events_per_op"): 0.55, ("put-gc", "host_ops_per_s"): 0.7})
    assert bench_diff.main(argv + ["--moved", "sim_events_per_op"]) == 0
    out = capsys.readouterr().out
    # The trajectory row for TO, cold / hot / put-gc / cluster-2pc per cell.
    assert out.startswith("| 2 (`BENCH_2.json`) | <what changed> | 1.103 / 1.031 / 1.331 / 1.337 |")
    assert "5.609 / 3.754 / 33.32 / 22.32" in out.splitlines()[0]
    table = {tuple(line.split()[:2]): line for line in out.splitlines()[3:]}
    assert "-45.0%" in table["ycsb-b-cold", "sim_events_per_op"]
    assert table["ycsb-b-cold", "sim_events_per_op"].endswith("ok, moved as declared")
    assert table["ycsb-b-cold", "sim_mean_us"].endswith("identical")
    # A host metric beyond its bound is flagged, never fatal: one run is noise.
    assert table["put-gc", "host_ops_per_s"].endswith("WORSE")


def test_an_undeclared_move_of_an_exact_metric_fails(root):
    argv = root({("ycsb-b-cold", "sim_events_per_op"): 0.55})
    complaint = bench_diff.main(argv)
    assert complaint and "ycsb-b-cold sim_events_per_op" in complaint


def test_the_smallest_move_of_a_simulated_result_fails_even_inside_its_bound(root, capsys):
    argv = root(
        {("cluster-2pc", "sim_p999_us"): 1.0 + 1e-12, ("ycsb-b-hot", "write_amp"): 1.0000001}
    )
    complaint = bench_diff.main(argv + ["--moved", "sim_events_per_op"])
    assert sorted(line.split(":")[2].strip() for line in complaint.splitlines()) == [
        "cluster-2pc sim_p999_us", "ycsb-b-hot write_amp",
    ]
    assert "MOVED: exact metric, same seed" in capsys.readouterr().out


def test_a_move_scoped_to_a_workload_excuses_no_other_workload(root, capsys):
    """``workload/metric`` lets three workloads move while the bypass
    workload must still repeat to the last bit."""
    moved = ["--moved", "cluster-2pc/sim_mean_us,ycsb-b-cold/sim_mean_us,sim_events_per_op"]
    scaled = {("cluster-2pc", "sim_mean_us"): 0.6, ("ycsb-b-cold", "sim_mean_us"): 0.98,
              ("ycsb-b-hot", "sim_events_per_op"): 1.004}
    assert bench_diff.main(root(scaled, base=19) + moved) == 0
    out = capsys.readouterr().out
    table = {tuple(line.split()[:2]): line for line in out.splitlines()[3:]}
    assert table["cluster-2pc", "sim_mean_us"].endswith("ok, moved as declared")
    assert table["put-gc", "sim_mean_us"].endswith("identical")

    scaled["put-gc", "sim_mean_us"] = 1.0 + 1e-12
    complaint = bench_diff.main(root(scaled, base=19) + moved)
    assert [line.split(":")[2].strip() for line in complaint.splitlines()] == [
        "put-gc sim_mean_us",
    ]
    # The same name unscoped would have excused it everywhere.
    unscoped = ["--moved", "sim_mean_us,sim_events_per_op"]
    assert bench_diff.main(root(scaled, base=19) + unscoped) == 0


def test_different_seeds_are_held_to_the_bounds_only(root, capsys):
    argv = root({("ycsb-b-cold", "sim_mean_us"): 1.02}, seed=2)
    assert bench_diff.main(argv) == 0
    assert "seeds 1 -> 2 (exactness not checked)" in capsys.readouterr().out


def test_records_of_different_length_are_held_to_the_bounds_only(root, capsys):
    """A 1 s smoke record is not a repeat of a 10 s one, even at one seed."""
    argv = root({("ycsb-b-cold", "sim_mean_us"): 1.02, ("put-gc", "write_amp"): 0.97}, seconds=1.0)
    assert bench_diff.main(argv) == 0
    out = capsys.readouterr().out
    assert "seeds 1 -> 1, seconds 10 -> 1 (exactness not checked)" in out
    assert "MOVED" not in out


WORKLOADS = ("ycsb-b-cold", "ycsb-b-hot", "put-gc", "cluster-2pc")


def ranked(old, new):
    """Each workload's layers, as bench-diff ranks them between two committed records."""
    before, after = (json.loads((REPO / f"BENCH_{n}.json").read_text())["workloads"]
                     for n in (old, new))
    return {w: bench_diff.rank(before[w]["per_layer"], after[w]["per_layer"]) for w in WORKLOADS}


def test_zero_event_delays_name_sim_on_every_workload():
    """PR 19 took cost delays off the event heap: cold sim.calls_per_op -36 %."""
    assert {w: layers[0] for w, layers in ranked(18, 19).items()} == dict.fromkeys(WORKLOADS, "sim")


def test_read_priority_dies_name_kaml_ahead_of_ssd_and_flash_on_cluster():
    """PR 20: the Get p99 and timer-flush share moved most (kaml), the chip
    and firmware utilisations with them."""
    layers = ranked(19, 20)["cluster-2pc"]
    assert layers[0] == "kaml"
    assert layers.index("kaml") < min(layers.index("ssd"), layers.index("flash"))


def test_the_mapping_seam_names_kaml():
    """PR 21 was exact: only calls moved, kaml's on every workload, plus
    0.19 % of obs calls on cluster-2pc (kaml's moved 0.14 %)."""
    layers = ranked(20, 21)
    assert layers.pop("cluster-2pc") == ["obs", "kaml"]
    assert layers == dict.fromkeys(WORKLOADS[:3], ["kaml"])


def test_the_calls_diet_names_obs_then_cache_on_ycsb(capsys):
    """PR 25 made disarmed tracing free and hits inline; host-timed metrics
    are listed apart and never ranked."""
    layers = ranked(21, 25)
    assert layers["ycsb-b-hot"][:2] == layers["ycsb-b-cold"][:2] == ["obs", "cache"]
    assert bench_diff.main(["21", "25"]) == 0  # an exact PR
    out = capsys.readouterr().out.split("layers that moved")[1]
    assert "\nycsb-b-hot   obs > cache > sim > kaml\n" in out
    assert "  obs.calls_per_op" in out and "  host-timed: bench." in out
    assert all(
        not bench_diff.host_timed(line.split()[0])
        for line in out.splitlines()[1:] if line.startswith("  ") and "host-timed" not in line
    )
