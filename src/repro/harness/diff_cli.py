"""``python -m repro.harness diff`` — differential run attribution.

Compares two run reports (``harness prof --json-out`` artifacts, or the
perf-gate baseline document) and prints which components' share of
request time shifted beyond noise, which SLO percentiles moved, and a
ranked suspect list by owning subsystem.  Alternatively, give it a
workload and two seeds and it runs both profiles in-process first —
the quickest way to check that an observed shift clears seed noise.

Examples::

    python -m repro.harness diff /tmp/before.json /tmp/after.json
    python -m repro.harness diff --workload mixed --seed-a 7 --seed-b 11
"""

from __future__ import annotations

import argparse
import io
import sys
from typing import Any, Dict

from repro.harness import prof_cli
from repro.harness.reporting import (
    append_step_summary,
    read_json,
    shared_options,
    write_json,
)
from repro.obs.diff import (
    DEFAULT_FLOOR_US,
    DEFAULT_NOISE_PP,
    DEFAULT_NOISE_REL,
    diff_reports,
    markdown_diff,
)


def _profile_seed(workload: str, seed: int) -> Dict[str, Any]:
    """Run one in-process kamlprof pass, discarding its console output."""
    args = prof_cli.build_parser().parse_args(
        ["--workload", workload, "--seed", str(seed)]
    )
    return prof_cli.run(args, out=io.StringIO())


def run(args: argparse.Namespace, out=None) -> Dict[str, Any]:
    out = out if out is not None else sys.stdout
    if args.reports:
        if len(args.reports) != 2:
            raise SystemExit("diff needs exactly two report files")
        report_a = read_json(args.reports[0])
        report_b = read_json(args.reports[1])
        label_a, label_b = args.reports
    else:
        if args.seed_a is None or args.seed_b is None:
            raise SystemExit(
                "give two report files, or --seed-a and --seed-b"
            )
        report_a = _profile_seed(args.workload, args.seed_a)
        report_b = _profile_seed(args.workload, args.seed_b)
        label_a = f"{args.workload} seed {args.seed_a}"
        label_b = f"{args.workload} seed {args.seed_b}"

    report = diff_reports(
        report_a, report_b,
        noise_pp=args.noise_pp,
        noise_rel=args.noise_rel,
        floor_us=args.floor_us,
    )
    report["a"] = label_a
    report["b"] = label_b
    markdown = markdown_diff(
        report, title=f"Differential run report: {label_a} vs {label_b}"
    )
    print(markdown, file=out)
    if args.json_out:
        write_json(args.json_out, report)
        print(f"diff report written to {args.json_out}", file=out)
    append_step_summary(markdown)
    return report


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "reports", nargs="*",
        help="two report JSON files (prof artifacts or baseline documents)",
    )
    shared_options(parser, workload=("mixed", "ycsb-b"), json_out=None)
    parser.add_argument("--seed-a", type=int, default=None)
    parser.add_argument("--seed-b", type=int, default=None)
    parser.add_argument(
        "--noise-pp", type=float, default=DEFAULT_NOISE_PP,
        help="breakdown-shift significance threshold (percentage points)",
    )
    parser.add_argument(
        "--noise-rel", type=float, default=DEFAULT_NOISE_REL,
        help="relative significance threshold for percentiles/telemetry",
    )
    parser.add_argument(
        "--floor-us", type=float, default=DEFAULT_FLOOR_US,
        help="absolute floor below which percentile shifts are noise",
    )
