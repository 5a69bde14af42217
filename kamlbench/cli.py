"""``python -m kamlbench``: run, compare two runs, or list the metrics.

The parent never imports the program under test.  It spawns one fresh
interpreter per pass (``PYTHONHASHSEED=0``, one host thread), stitches
the passes of a workload into one report, checks it against
``BENCHMARK.json``, prints every metric by name with its unit, and — when
one workload and ``--trace`` are given, as the benchmark driver does —
ends with the one-line JSON result of the benchmark contract.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

from kamlbench.driver import MODES, TRACED_FRACTION, run_pass as run_pass_here

ROOT = Path(__file__).resolve().parent.parent
CONTRACT_PATH = ROOT / "BENCHMARK.json"
DEFAULT_TRACE_DIR = ROOT / ".kamlbench_out"

#: The three passes of one workload share this budget; a pass still
#: running when it is spent is killed (the contract allows 180 s).
WORKLOAD_BUDGET_S = 170

#: Simulated and counted metrics: two runs of one tree and one seed must
#: agree on these exactly.
EXACT = (
    "sim_events_per_op", "sim_ops_per_s", "sim_mean_us", "sim_tail_mean_us", "sim_p999_us",
    "write_amp",
)


class BenchError(Exception):
    """The benchmark could not produce a valid result."""


def load_contract() -> Dict[str, Any]:
    with open(CONTRACT_PATH) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Passes and reports
# ---------------------------------------------------------------------------

def run_pass(workload: str, seed: int, seconds: float, mode: str, fraction: float,
             trace_dir: Optional[Path], timeout_s: float) -> Dict[str, Any]:
    """Run one pass in a child interpreter and return its document."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    command = [
        sys.executable, "-m", "kamlbench", "pass",
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--mode", mode, "--fraction", repr(fraction),
        "--started-at", repr(perf_counter()),
    ]
    if trace_dir is not None:
        command += ["--trace-dir", str(trace_dir)]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, timeout_s),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(
            f"{workload}: {mode} pass overran the {WORKLOAD_BUDGET_S} s budget"
        ) from None
    if done.returncode != 0:
        raise BenchError(f"{workload}: {mode} pass exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: Optional[int],
                 trace_dir: Path) -> Dict[str, Any]:
    """All passes of one workload, stitched into one report.

    ``trace`` None is the full run (untraced window, then both traced
    passes); 0 is the untraced window plus two set-up-only passes; 1 is
    the leading quarter of the window untraced, profiled and with spans.
    Every variant starts three children, and ``setup_s`` is the median of
    their three set-up times.
    """
    if trace == 0:
        plan = [("measure", 1.0), ("setup", 0.0), ("setup", 0.0)]
    else:
        first = 1.0 if trace is None else TRACED_FRACTION
        plan = [("measure", first), ("profile", TRACED_FRACTION), ("spans", TRACED_FRACTION)]
    deadline = perf_counter() + WORKLOAD_BUDGET_S
    passes = [
        run_pass(workload, seed, seconds, mode, fraction,
                 trace_dir if mode == "spans" else None, deadline - perf_counter())
        for mode, fraction in plan
    ]
    measured = passes[0]
    report: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "clients": measured["clients"],
        "ops": measured["ops"],
        "samples": measured["samples"],
        "ops_attempted": measured["attempted"],
        "ops_failed": sum(p["failed"] for p in passes),
        "errors": [error for p in passes for error in p["errors"]],
        "window_raw_s": measured["window_raw_s"],
        "setup_samples_s": [p["setup_s"] for p in passes],
        "regime": measured["regime"],
        "write_amp_halves": measured["write_amp_halves"],
        "segments": measured["segments"],
        "end_to_end": {
            "setup_s": statistics.median(p["setup_s"] for p in passes),
            **measured["e2e"],
        },
    }
    if trace != 0:
        profiled, spanned = passes[1], passes[2]
        base = measured["leading_host_ops_per_s"]
        report["per_layer"] = {
            **measured["layers"],
            **profiled["profile"],
            **spanned["spans"],
            "obs.profile_overhead": base / profiled["e2e"]["host_ops_per_s"],
            "obs.span_overhead": base / spanned["e2e"]["host_ops_per_s"],
        }
        report["trace_file"] = spanned.get("trace_file")
    return report


def check_report(report: Dict[str, Any], contract: Dict[str, Any], full_scale: bool) -> List[str]:
    """Everything that makes ``report`` unfit to publish."""
    problems = []
    for section in ("end_to_end", "per_layer"):
        if section not in report:
            continue
        want = {metric["name"] for metric in contract[section]}
        have = set(report[section])
        if want != have:
            problems.append(
                f"{section} names differ from BENCHMARK.json: "
                f"missing {sorted(want - have)}, extra {sorted(have - want)}"
            )
    if report["ops_failed"]:
        problems.append(f"{report['ops_failed']} failed ops: {report['errors']}")
    if full_scale:
        problems += [f"regime guard: {line}" for line in report["regime"]]
    if "per_layer" in report:
        layer = report["per_layer"]
        for suffix in (".sim_share", "host_self_share"):
            total = sum(value for name, value in layer.items() if name.endswith(suffix))
            if abs(total - 1.0) > 0.01:
                problems.append(f"*{suffix} sums to {total:.4f}, not 1.0")
    return problems


def print_report(report: Dict[str, Any], contract: Dict[str, Any]) -> None:
    print(
        f"== {report['workload']}  seed {report['seed']}  {report['clients']} closed-loop clients  "
        f"{report['ops']} ops ({report['samples']} latency samples, "
        f"{report['window_raw_s']:.1f} s raw window)  "
        f"attempted {report['ops_attempted']}  failed {report['ops_failed']}"
    )
    for section in ("end_to_end", "per_layer"):
        for metric in contract[section]:
            value = report.get(section, {}).get(metric["name"])
            if value is not None:
                print(f"  {metric['name']:<36} {value:>16.6f} {metric['unit']}")
    for line in report["regime"]:
        print(f"  regime guard (enforced at full scale): {line}")


def contract_line(report: Dict[str, Any], contract: Dict[str, Any], section: str, ok: bool) -> str:
    """The benchmark contract's one-line result."""
    metrics = {
        metric["name"]: {"value": report[section][metric["name"]], "unit": metric["unit"]}
        for metric in contract[section]
    }
    return json.dumps({
        "correct": ok,
        "attempted": report["ops_attempted"],
        "failed": report["ops_failed"],
        "metrics": metrics,
    })


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def command_run(args: argparse.Namespace) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    chosen = [args.workload] if args.workload else names
    full_scale = args.seconds >= contract["run_seconds"] and args.trace != 1
    reports, failed = {}, False
    for name in chosen:
        report = run_workload(name, args.seed, args.seconds, args.trace, Path(args.trace_dir))
        problems = check_report(report, contract, full_scale)
        print_report(report, contract)
        for problem in problems:
            print(f"  FAILED: {problem}", file=sys.stderr)
        failed = failed or bool(problems)
        reports[name] = report
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"schema": 1, "seed": args.seed, "seconds": args.seconds,
                       "workloads": reports}, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if failed:
        return 1
    if args.workload and args.trace is not None:
        section = "per_layer" if args.trace else "end_to_end"
        print(contract_line(reports[args.workload], contract, section, ok=True))
    return 0


def command_aa(args: argparse.Namespace) -> int:
    """Two full sets of the same tree, back to back; they must agree."""
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    sets: List[Dict[str, Any]] = []
    for order in (names, names[::-1]):
        sets.append({
            name: run_workload(name, args.seed, args.seconds, None, Path(args.trace_dir))
            for name in order
        })
    failed = False
    print(f"{'workload':<12} {'metric':<20} {'first':>14} {'second':>14} {'diff':>9} {'bound':>7}")
    for name in names:
        first, second = sets[0][name], sets[1][name]
        for report in (first, second):
            for problem in check_report(report, contract, args.seconds >= contract["run_seconds"]):
                print(f"FAILED {name}: {problem}", file=sys.stderr)
                failed = True
        for metric in contract["end_to_end"]:
            a = first["end_to_end"][metric["name"]]
            b = second["end_to_end"][metric["name"]]
            diff = abs(a - b) / min(a, b)
            allowed = 0.0 if metric["name"] in EXACT else metric["bound"]
            verdict = "" if diff <= allowed else "  <-- FAILED"
            failed = failed or diff > allowed
            print(f"{name:<12} {metric['name']:<20} {a:>14.4f} {b:>14.4f} "
                  f"{diff:>8.2%} {allowed:>6.0%}{verdict}")
        for metric, a in first["per_layer"].items():
            if metric.endswith(".calls_per_op") and a != second["per_layer"][metric]:
                print(f"FAILED {name}: {metric} differs: {a!r} vs {second['per_layer'][metric]!r}",
                      file=sys.stderr)
                failed = True
    return 1 if failed else 0


def command_list(_args: argparse.Namespace) -> int:
    contract = load_contract()
    print("command:", " ".join(contract["command"]), f"(run_seconds {contract['run_seconds']})")
    for workload in contract["workloads"]:
        print(f"workload    {workload['name']:<14} {workload['why']}")
    for metric in contract["end_to_end"]:
        print(f"end-to-end  {metric['name']:<36} {metric['unit']:<14} "
              f"{metric['better']:<7} bound {metric['bound']:.0%}")
    for metric in contract["per_layer"]:
        print(f"per-layer   {metric['name']:<36} {metric['unit']:<14} {metric['better']}")
    return 0


def command_pass(args: argparse.Namespace) -> int:
    doc = run_pass_here(
        args.workload, args.seed, args.seconds, args.mode, args.fraction,
        args.started_at, args.trace_dir,
    )
    print(json.dumps(doc))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m kamlbench",
        description="kamlbench: the two-clock, per-layer benchmark of record",
    )
    parser.add_argument("--list", action="store_true",
                        help="print every workload and metric of BENCHMARK.json and exit")
    commands = parser.add_subparsers(dest="command")

    def shared(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--seed", type=int, required=True, help="seed of the op streams")
        sub.add_argument("--seconds", type=float, default=10.0,
                         help="nominal window length; op counts are a constant times this")
        sub.add_argument("--trace-dir", default=str(DEFAULT_TRACE_DIR),
                         help="where the spans pass writes <workload>.jsonl")

    run = commands.add_parser("run", help="run the workloads and print every metric")
    shared(run)
    run.add_argument("--workload", help="one workload (default: all four)")
    run.add_argument("--trace", type=int, choices=(0, 1),
                     help="0: untraced window only; 1: leading quarter untraced, profiled "
                          "and with spans (default: untraced window, then both traced passes)")
    run.add_argument("--out", help="write the JSON document here")
    run.set_defaults(handler=command_run)

    aa = commands.add_parser("aa", help="run everything twice and compare")
    shared(aa)
    aa.set_defaults(handler=command_aa)

    one = commands.add_parser("pass", help="(internal) one pass in this interpreter")
    one.add_argument("--workload", required=True)
    one.add_argument("--seed", type=int, required=True)
    one.add_argument("--seconds", type=float, required=True)
    one.add_argument("--mode", required=True, choices=MODES)
    one.add_argument("--fraction", type=float, required=True)
    one.add_argument("--started-at", type=float, required=True)
    one.add_argument("--trace-dir")
    one.set_defaults(handler=command_pass)

    args = parser.parse_args(argv)
    if args.list:
        return command_list(args)
    if args.command is None:
        parser.error("a command is required: run, aa (or --list)")
    try:
        return args.handler(args)
    except BenchError as error:
        print(f"kamlbench: {error}", file=sys.stderr)
        return 1
