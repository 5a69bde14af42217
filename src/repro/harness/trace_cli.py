"""``python -m repro.harness record`` / ``replay`` — kamltrace front end.

``record`` runs a seeded workload with the op journal enabled and
streams every host-visible store/device command to a JSONL(.gz) file —
or, for the ``synth-*`` workloads, emits a synthetic journal with the
same schema without running a simulation at all.  ``replay`` re-issues
a journal against a fresh stack in open- or closed-loop mode and can
re-capture while doing so, which is the capture -> replay -> capture
round trip the determinism suite pins.

Example::

    python -m repro.harness record --workload ycsb-b --ops 1000 \
        --out /tmp/ycsb-b.jsonl.gz
    python -m repro.harness replay /tmp/ycsb-b.jsonl.gz --mode closed \
        --threads 1 --capture-out /tmp/ycsb-b.replayed.jsonl.gz
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List

from repro.harness.reporting import format_kv, shared_options, write_json
from repro.harness.runner import build_kaml_ssd, build_kaml_store, settle
from repro.obs.metrics import percentile
from repro.obs.oplog import load_journal, mix_summary, write_journal
from repro.workloads import SIM_WORKLOADS, prepare_workload
from repro.workloads.replay import (
    SYNTH_GENERATORS,
    journal_to_issues,
    prepare_namespaces,
    replay_journal,
)

RECORD_WORKLOADS = SIM_WORKLOADS + tuple(sorted(SYNTH_GENERATORS))
#: Read share of the synth-* generators when driven from this CLI.
SYNTH_READ_FRACTION = 0.5


# ---------------------------------------------------------------------------
# record
# ---------------------------------------------------------------------------

def _print_journal_summary(rows: List[Dict[str, Any]], out) -> None:
    summary = mix_summary(rows)
    print(format_kv("Journal summary", {
        "rows": sum(summary["ops"].values()),
        "ops": json.dumps(summary["ops"], sort_keys=True),
        "layers": json.dumps(summary["layers"], sort_keys=True),
        "namespaces": json.dumps(summary["namespaces"], sort_keys=True),
        "working_set": summary["working_set"],
        "bytes": summary["bytes"],
        "span_us": round(summary["span_us"], 1),
    }), file=out)


def run_record(args: argparse.Namespace, out=None) -> Dict[str, Any]:
    out = out if out is not None else sys.stdout
    if args.workload in SYNTH_GENERATORS:
        rows = SYNTH_GENERATORS[args.workload](
            args.ops,
            args.key_space,
            read_fraction=SYNTH_READ_FRACTION,
            seed=args.seed,
        )
        written = write_journal(args.out, rows)
        print(f"synthetic journal: {written} rows -> {args.out}", file=out)
        _print_journal_summary(rows, out)
        return {"rows": written, "dropped": 0, "out": args.out}

    env, ssd, store = build_kaml_store(cache_bytes=args.cache_bytes)
    journal = ssd.enable_oplog(path=args.out)
    try:
        prepare_workload(
            args.workload, env, ssd, store,
            seed=args.seed, ops=args.ops, threads=args.threads,
            key_space=args.key_space, records=args.records,
        )()
        # Every captured command must have acked before the file closes.
        settle(env, ssd)
    finally:
        journal.close()
    counts = journal.counts()
    print(
        f"captured {counts['recorded']} ops ({counts['dropped']} dropped, "
        f"capacity {counts['capacity']}) -> {args.out}",
        file=out,
    )
    rows = load_journal(args.out)
    _print_journal_summary(rows, out)
    return {"rows": counts["recorded"], "dropped": counts["dropped"],
            "out": args.out}


def add_record_arguments(parser: argparse.ArgumentParser) -> None:
    shared_options(
        parser, workload=RECORD_WORKLOADS, ops=1000, threads=4, records=1000,
        key_space=512, seed=7, cache_bytes=1 << 20,
    )
    parser.add_argument("--out", required=True,
                        help="journal path (.jsonl or .jsonl.gz)")


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

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
