"""``python -m repro.harness replay`` — the kamltrace replayer.

Re-issues an op journal (captured by ``prof --record-out``) against a
fresh stack in open- or closed-loop mode and can re-capture while doing
so, which is the capture -> replay -> capture round trip the determinism
suite pins.

Example::

    python -m repro.harness prof --workload ycsb-b --ops 1000 \
        --record-out /tmp/ycsb-b.jsonl.gz
    python -m repro.harness replay /tmp/ycsb-b.jsonl.gz --mode closed \
        --threads 1 --capture-out /tmp/ycsb-b.replayed.jsonl.gz
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict

from repro.harness.reporting import format_kv, shared_options, write_json
from repro.harness.runner import build_kaml_ssd, build_kaml_store, settle
from repro.obs.metrics import percentile
from repro.obs.oplog import load_journal
from repro.workloads.replay import journal_to_issues, prepare_namespaces, replay_journal


def run_replay(args: argparse.Namespace, out=None) -> Dict[str, Any]:
    out = out if out is not None else sys.stdout
    rows = load_journal(args.journal)
    issues = journal_to_issues(rows, layer=args.layer)

    if args.layer == "store":
        env, ssd, target = build_kaml_store(cache_bytes=args.cache_bytes)
    else:
        env, ssd = build_kaml_ssd()
        target = ssd
    namespace_map = prepare_namespaces(env, ssd, rows, layer=args.layer)

    capture = None
    if args.capture_out:
        capture = ssd.enable_oplog(path=args.capture_out)
    try:
        result = replay_journal(
            env, target, issues,
            namespace_map=namespace_map,
            mode=args.mode,
            threads=args.threads,
            speed=args.speed,
        )
        settle(env, ssd)
    finally:
        if capture is not None:
            capture.close()

    latencies = sorted(result.latencies_us)
    report = {
        "journal": args.journal,
        "layer": args.layer,
        "mode": args.mode,
        "threads": args.threads,
        "speed": args.speed,
        "issues": len(issues),
        "ops": result.ops,
        "elapsed_us": result.elapsed_us,
        "ops_per_second": result.ops_per_second,
        "throughput_mb_s": result.throughput_mb_s,
        "latency_p50_us": percentile(latencies, 0.50),
        "latency_p99_us": percentile(latencies, 0.99),
        "namespace_map": {str(k): v for k, v in sorted(namespace_map.items())},
    }
    if capture is not None:
        report["capture"] = capture.counts()
        report["capture_out"] = args.capture_out
    print(format_kv(f"Replay ({args.mode}-loop)", {
        "issues": report["issues"],
        "ops": report["ops"],
        "elapsed_us": round(report["elapsed_us"], 1),
        "kops_s": round(report["ops_per_second"] / 1e3, 1),
        "p50_us": round(report["latency_p50_us"], 2),
        "p99_us": round(report["latency_p99_us"], 2),
    }), file=out)
    if capture is not None:
        print(
            f"re-captured {report['capture']['recorded']} ops -> "
            f"{args.capture_out}",
            file=out,
        )
    if args.json_out:
        write_json(args.json_out, report)
        print(f"replay report written to {args.json_out}", file=out)
    return report


def add_replay_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("journal", help="journal path (.jsonl or .jsonl.gz)")
    parser.add_argument(
        "--mode", choices=("closed", "open"), default="closed",
        help="closed: lanes issue back-to-back; open: honor recorded gaps",
    )
    shared_options(parser, threads=1, cache_bytes=1 << 20, json_out=None)
    parser.add_argument(
        "--speed", type=float, default=1.0,
        help="open-loop time compression (2.0 replays twice as fast)",
    )
    parser.add_argument(
        "--layer", choices=("ssd", "store"), default="ssd",
        help="which captured layer to re-issue (never both: the store "
             "layer re-generates its own device traffic)",
    )
    parser.add_argument(
        "--capture-out", default=None,
        help="re-capture the replay into this journal (round-trip check)",
    )
