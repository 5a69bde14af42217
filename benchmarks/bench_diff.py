"""Diff two committed kamlbench records: ``make bench-diff FROM=18 TO=19``.

Prints the docs/performance.md trajectory row for TO and each (workload, metric)
delta against its BENCHMARK.json bound; exits 1 if, for the same seed and length,
a simulated or exact metric not named in ``--moved`` differs *at all* (they repeat
bit-for-bit).  A ``--moved`` entry is a metric (excused on every workload) or
``workload/metric``.  Then, per workload, it names the layer that moved: the
per-layer metrics ranked by relative change, the top movers summed by layer (the
metric-name prefix before the first dot), and the host-timed metrics listed apart.
"""

import argparse
import json
import math
import pathlib
import sys

ROW = ("write_amp", "sim_ops_per_s", "sim_mean_us", "sim_tail_mean_us",
       "sim_p999_us", "sim_events_per_op", "host_ops_per_s", "setup_s")
REPO = pathlib.Path(__file__).resolve().parent.parent
LINE = "{:<12} {:<18} {:>9} {:>9} {:>8} {:>6}  {}"
TOP = 5  # per-layer movers that roll up into the layer ranking


def short(value: float) -> str:
    if value >= 1e4:
        return f"{value / 1e6:.3f}M" if value >= 1e6 else f"{value / 1e3:.1f}k"
    return f"{value:,.0f}" if value >= 1e3 else f"{value:.4g}"


def host_timed(metric: str) -> bool:
    """Host wall-clock metrics: noisy, unlike the rest, which repeat per seed."""
    return metric.startswith("bench.") or "host_" in metric or metric.endswith("_overhead")


def change(old: float, new: float) -> float:
    return (new - old) / abs(old) if old else (0.0 if new == old else math.inf)


def movers(before: dict, after: dict, host: bool) -> list:
    """Per-layer metrics of one kind (host-timed or not) that moved, largest
    relative change first."""
    moved = [name for name in before if host_timed(name) == host and before[name] != after[name]]
    return sorted(moved, key=lambda name: (-abs(change(before[name], after[name])), name))


def rank(before: dict, after: dict) -> list:
    """Layers by the summed relative change of their metrics among the top movers."""
    score = {}
    for name in movers(before, after, host=False)[:TOP]:
        layer = name.split(".", 1)[0]
        score[layer] = score.get(layer, 0.0) + abs(change(before[name], after[name]))
    return sorted(score, key=lambda layer: (-score[layer], layer))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="PR number of the older BENCH_<n>.json")
    parser.add_argument("new", help="PR number of the newer one")
    parser.add_argument("--moved", default="",
                        help="exact metrics allowed to differ: metric or workload/metric (a,b,...)")
    parser.add_argument("--root", type=pathlib.Path, default=REPO, help="where the JSON files are")
    args = parser.parse_args(argv)
    old, new, contract = (
        json.loads((args.root / name).read_text())
        for name in (f"BENCH_{args.old}.json", f"BENCH_{args.new}.json", "BENCHMARK.json")
    )
    exact = old["seed"] == new["seed"] and old["seconds"] == new["seconds"]
    moved, broken = args.moved.split(","), []
    runs = {w["name"]: [doc["workloads"][w["name"]] for doc in (old, new)]
            for w in contract["workloads"]}
    row = " | ".join(" / ".join(short(after["end_to_end"][m]) for _, after in runs.values())
                     for m in ROW)
    print(f"| {args.new} (`BENCH_{args.new}.json`) | <what changed> | {row} |\n")
    length = "" if old["seconds"] == new["seconds"] else (
        f", seconds {old['seconds']:g} -> {new['seconds']:g}")
    unchecked = "" if exact else " (exactness not checked)"
    print(f"seeds {old['seed']} -> {new['seed']}{length}{unchecked}")
    print(LINE.format("workload", "metric", "old", "new", "delta", "bound", "verdict"))
    for workload, (before, after) in runs.items():
        for metric in contract["end_to_end"]:
            name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            a, b = before["end_to_end"][name], after["end_to_end"][name]
            delta = (b - a) / a if a else 0.0
            verdict = "WORSE" if (delta if lower else -delta) > bound else "ok"
            if exact and (name.startswith("sim_") or name == "write_amp"):
                verdict = "identical" if a == b else f"{verdict}, moved as declared"
                if a != b and name not in moved and f"{workload}/{name}" not in moved:
                    verdict = "MOVED: exact metric, same seed"
                    broken.append(f"{workload} {name}: {a!r} -> {b!r}")
            cells = (short(a), short(b), f"{delta:+.1%}", f"{bound:.0%}", verdict)
            print(LINE.format(workload, name, *cells))
    print(f"\nlayers that moved (top {TOP} per-layer movers by relative change, summed by layer):")
    for workload, (before, after) in runs.items():
        before, after = before["per_layer"], after["per_layer"]
        print(f"{workload:<12} {' > '.join(rank(before, after)) or 'none'}")
        for name in movers(before, after, host=False)[:TOP]:
            cells = (short(before[name]), short(after[name]), change(before[name], after[name]))
            print("  {:<36} {:>9} {:>9} {:+8.1%}".format(name, *cells))
        host = [f"{name} {change(before[name], after[name]):+.1%}"
                for name in movers(before, after, host=True)[:TOP]]
        print(f"  host-timed: {', '.join(host) or 'none moved'}")
    return "\n".join(f"bench-diff: simulated result moved: {line}" for line in broken) or 0


if __name__ == "__main__":
    sys.exit(main())  # a string is printed to stderr and exits 1
