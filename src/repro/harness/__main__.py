"""Command-line experiment runner.

Regenerate any figure of the paper from a shell, or run one of the
harness subcommands (each has its own ``--help``)::

    python -m repro.harness fig5          # bandwidth sweep (Figure 5)
    python -m repro.harness fig9 fig10    # several in one go
    python -m repro.harness all           # the full evaluation
    python -m repro.harness --list
    python -m repro.harness prof --workload ycsb-b           # seeded-run driver
    python -m repro.harness crash --matrix                   # crash matrix
    python -m repro.harness replay /tmp/cap.jsonl.gz         # journal replay

``prof`` is the one driver of a seeded workload on the full store stack:
the kamlprof breakdown, SLO breach dumps, a Chrome trace and the op
journal are all views of its one run.
"""

from __future__ import annotations

import argparse
import inspect
import sys

from repro.harness import (
    ablations,
    cluster_cli,
    crash_cli,
    experiments,
    format_table,
    prof_cli,
    trace_cli,
)
from repro.harness.reporting import wallclock

EXPERIMENTS = {
    "fig5": (experiments.fig5_bandwidth, "Get/Put vs read/write bandwidth"),
    "fig6": (experiments.fig6_latency, "Get/Put vs read/write latency"),
    "fig7": (experiments.fig7_batch, "effect of Put batch size"),
    "fig8": (experiments.fig8_multilog, "Put bandwidth vs number of logs"),
    "fig9": (experiments.fig9_oltp, "OLTP throughput (TPC-B, TPC-C)"),
    "fig10": (experiments.fig10_ycsb, "YCSB throughput"),
    "conflicts": (experiments.conflict_model, "lock-granularity conflict model"),
    "gc-policy": (ablations.gc_policy_ablation, "ablation: GC victim policy"),
    "index": (ablations.index_structure_ablation, "ablation: mapping-table structure"),
    "flush-timer": (ablations.flush_timer_ablation, "ablation: NVRAM flush timer"),
    "group-commit": (ablations.group_commit_ablation, "ablation: WAL group commit"),
    "qos": (ablations.qos_isolation_ablation, "ablation: namespace/log isolation"),
}

#: Every subcommand: ``name -> (description, add_arguments, run)``.
#: Dispatch, ``--list`` and each ``<name> --help`` are generated from
#: this table.  ``run(args)`` returns an exit code or a report dict.
COMMANDS = {
    "prof": ("seeded run: profile, SLOs, trace, journal", prof_cli.add_arguments, prof_cli.run),
    "crash": ("crash-consistency matrix", crash_cli.add_arguments, crash_cli.run),
    "cluster": ("sharded serving-tier matrix", cluster_cli.add_arguments, cluster_cli.run),
    "replay": ("re-issue a captured journal", trace_cli.add_replay_arguments, trace_cli.run_replay),
}


def command_parser(name: str) -> argparse.ArgumentParser:
    """The argument parser of subcommand ``name``."""
    description, add_arguments, _run = COMMANDS[name]
    parser = argparse.ArgumentParser(
        prog=f"python -m repro.harness {name}", description=description
    )
    add_arguments(parser)
    return parser


def figures_parser() -> argparse.ArgumentParser:
    """The argument parser of a figure/experiment run (no subcommand)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Reproduce the KAML paper's evaluation figures.",
    )
    parser.add_argument(
        "figures", nargs="*",
        help=f"which experiments to run: {', '.join(EXPERIMENTS)}, 'all', "
             f"or a subcommand: {', '.join(COMMANDS)} (see '<subcommand> --help')",
    )
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override the workload RNG seed of experiments that accept one",
    )
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in COMMANDS:
        _description, _add_arguments, run = COMMANDS[argv[0]]
        result = run(command_parser(argv[0]).parse_args(argv[1:]))
        return result if isinstance(result, int) else 0

    args = figures_parser().parse_args(argv)

    if args.list or not args.figures:
        for name, (_func, description) in EXPERIMENTS.items():
            print(f"{name:10} {description}")
        for name, (description, _add_arguments, _run) in COMMANDS.items():
            print(f"{name:10} {description} (see '{name} --help')")
        return 0

    names = list(EXPERIMENTS) if "all" in args.figures else args.figures
    for name in names:
        if name not in EXPERIMENTS:
            print(f"unknown experiment: {name!r} (see --list)", file=sys.stderr)
            return 2
        func, _description = EXPERIMENTS[name]
        kwargs = {}
        if args.seed is not None and "seed" in inspect.signature(func).parameters:
            kwargs["seed"] = args.seed
        started = wallclock()
        result = func(**kwargs)
        print(format_table(result["title"], result["headers"], result["rows"]))
        print(f"[{name} finished in {wallclock() - started:.1f}s wall]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
