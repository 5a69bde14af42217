"""Crash-consistency driver: ``python -m repro.harness crash``.

The CI front door for :mod:`repro.fault`.  Runs the crash matrix (every
crash point x several seeds) or a single armed cell, prints a verdict
table, and on divergence leaves two artifacts for the workflow to
upload: a JSON divergence report (``--report``) and per-failing-cell
flight-recorder JSONL dumps (``--flight-dir``) so the post-mortem does
not start from a bare assertion message::

    python -m repro.harness crash --matrix
    python -m repro.harness crash --matrix --seeds 1,2,3 --report out.json
    python -m repro.harness crash --point gc.mid_relocation --seeds 7
    python -m repro.harness crash --point cluster.2pc.mid_commit --seeds 2
    python -m repro.harness crash --list-points

Device crash points cut a single SSD mid-operation; the
``cluster.2pc.*`` points cut the whole rack at a coordinator decision
boundary and check cross-shard all-or-nothing (``--cluster-shards``
sizes that cluster).  One engine (:mod:`repro.fault.harness`) runs both
layers, so every flag reaches every cell; ``--matrix`` sweeps both.
"""

from __future__ import annotations

import argparse
from typing import Any, Dict

from repro.fault import ALL_CRASH_POINTS, run_matrix
from repro.fault.harness import DEFAULT_SHARDS
from repro.harness.reporting import cell_layer, emit, parse_int_list, step_summary


def _hit(cell: Dict[str, Any]) -> str:
    return "-" if cell.get("hit") is None else str(cell["hit"])


def _point(cell: Dict[str, Any]) -> str:
    return cell["point"] or "(counting)"


def _cell_row(cell: Dict[str, Any]) -> str:
    status = "ok" if cell["ok"] else "FAIL"
    detail = "" if cell["ok"] else f'  {"; ".join(cell["failures"][:2])}'
    return (
        f"  [{status:>4}] {cell_layer(cell):>8} seed {cell['seed']:>3}  "
        f"{_point(cell):28} hit {_hit(cell):>4}{detail}"
    )


def summary(report: Dict[str, Any]) -> str:
    """The matrix as the step-summary markdown table."""
    return step_summary(
        "Crash-consistency matrix",
        [
            ("layer", "---", cell_layer),
            ("seed", "---:", lambda cell: cell["seed"]),
            ("crash point", "---", _point),
            ("hit", "---:", _hit),
        ],
        report["cells"],
    )


def repro_hint(cell: Dict[str, Any]) -> str:
    """The command that re-runs exactly this cell (a counting-pass cell
    has no point to name: re-run its seed's sweep)."""
    mode = f"--point {cell['point']}" if cell["point"] else "--matrix"
    hint = f"python -m repro.harness crash {mode} --seeds {cell['seed']}"
    if cell.get("shards") is not None:
        hint += f" --cluster-shards {cell['shards']}"
    return hint


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--matrix", action="store_true",
        help="sweep every crash point (or --point) across --seeds",
    )
    parser.add_argument(
        "--point", action="append", choices=list(ALL_CRASH_POINTS), default=None,
        help="restrict to one crash point (repeatable; cluster.* points "
             "run on a cluster)",
    )
    parser.add_argument(
        "--cluster-shards", type=int, default=DEFAULT_SHARDS,
        help=f"shard count for cluster.2pc.* cells (default: {DEFAULT_SHARDS})",
    )
    parser.add_argument(
        "--seeds", default="1,2,3",
        help="comma-separated workload seeds (default: 1,2,3)",
    )
    parser.add_argument(
        "--ops", type=int, default=None,
        help="operations per writer process (default: 90 on a device, "
             "40 on a cluster)",
    )
    parser.add_argument(
        "--program-fail-rate", type=float, default=0.0,
        help="transient program-failure probability per page (default: 0)",
    )
    parser.add_argument(
        "--erase-fail-rate", type=float, default=0.0,
        help="transient erase-failure probability per block (default: 0)",
    )
    parser.add_argument(
        "--report", dest="json_out", default=None,
        help="write the full divergence report as JSON to this path",
    )
    parser.add_argument(
        "--flight-dir", default=None,
        help="dump flight-recorder JSONL for each failing cell here",
    )
    parser.add_argument(
        "--list-points", action="store_true", help="list crash points and exit"
    )


def run(args: argparse.Namespace) -> int:
    if args.list_points:
        for point in ALL_CRASH_POINTS:
            print(point)
        return 0
    if not args.matrix and not args.point:
        raise SystemExit("pick a mode: --matrix, --point <name>, or --list-points")

    seeds = parse_int_list(args.seeds, "--seeds")
    # A bare --matrix sweeps both layers.
    report = run_matrix(
        seeds,
        points=args.point or list(ALL_CRASH_POINTS),
        ops_per_writer=args.ops,
        program_fail_rate=args.program_fail_rate,
        erase_fail_rate=args.erase_fail_rate,
        shards=args.cluster_shards,
    )
    print(f"crash matrix: seeds {seeds}, points {report['points']}")
    for cell in report["cells"]:
        print(_cell_row(cell))

    return emit(
        report, args, summary(report), "crash matrix", repro_hint,
        "recovered state matched the shadow model",
    )
