"""Diff two committed kamlbench records: ``make bench-diff FROM=18 TO=19``.

Prints the docs/performance.md trajectory row for TO and each (workload, metric)
delta against its BENCHMARK.json bound; exits 1 if, for the same seed, a simulated
or exact metric not named in ``--moved`` differs *at all* (they repeat bit-for-bit).
A ``--moved`` entry is a metric (excused on every workload) or ``workload/metric``.
"""

import argparse
import json
import pathlib
import sys

ROW = ("write_amp", "sim_ops_per_s", "sim_mean_us", "sim_tail_mean_us",
       "sim_p999_us", "sim_events_per_op", "host_ops_per_s", "setup_s")
REPO = pathlib.Path(__file__).resolve().parent.parent
LINE = "{:<12} {:<18} {:>9} {:>9} {:>8} {:>6}  {}"


def short(value: float) -> str:
    if value >= 1e4:
        return f"{value / 1e6:.3f}M" if value >= 1e6 else f"{value / 1e3:.1f}k"
    return f"{value:,.0f}" if value >= 1e3 else f"{value:.4g}"


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
    same_seed, moved, broken = old["seed"] == new["seed"], args.moved.split(","), []
    runs = {w["name"]: [doc["workloads"][w["name"]]["end_to_end"] for doc in (old, new)]
            for w in contract["workloads"]}
    row = " | ".join(" / ".join(short(after[m]) for _, after in runs.values()) for m in ROW)
    print(f"| {args.new} (`BENCH_{args.new}.json`) | <what changed> | {row} |\n")
    print(f"seeds {old['seed']} -> {new['seed']}{'' if same_seed else ' (exactness not checked)'}")
    print(LINE.format("workload", "metric", "old", "new", "delta", "bound", "verdict"))
    for workload, (before, after) in runs.items():
        for metric in contract["end_to_end"]:
            name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            a, b = before[name], after[name]
            delta = (b - a) / a if a else 0.0
            verdict = "WORSE" if (delta if lower else -delta) > bound else "ok"
            if same_seed and (name.startswith("sim_") or name == "write_amp"):
                verdict = "identical" if a == b else f"{verdict}, moved as declared"
                if a != b and name not in moved and f"{workload}/{name}" not in moved:
                    verdict = "MOVED: exact metric, same seed"
                    broken.append(f"{workload} {name}: {a!r} -> {b!r}")
            cells = (short(a), short(b), f"{delta:+.1%}", f"{bound:.0%}", verdict)
            print(LINE.format(workload, name, *cells))
    return "\n".join(f"bench-diff: simulated result moved: {line}" for line in broken) or 0


if __name__ == "__main__":
    sys.exit(main())  # a string is printed to stderr and exits 1
