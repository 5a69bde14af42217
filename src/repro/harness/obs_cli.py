"""``python -m repro.harness obs`` — the observability driver.

Runs a seeded mixed Get/Put workload against a full KAML store stack with
latency SLOs armed, prints a live (simulated-time) dashboard while the
workload runs, and finishes with the trace summary, per-namespace
latency percentiles, and any SLO breach dumps.  The flight recorder's
span stream can be exported as JSONL (``--flight-out``) or as a Chrome
``trace_event`` file (``--trace-out``) loadable in Perfetto or
``chrome://tracing``.

Example::

    python -m repro.harness obs --ops 200 --slo-put-us 150 \
        --trace-out /tmp/kaml_trace.json --flight-out /tmp/kaml_flight.jsonl
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from typing import Any, Dict, List

from repro.harness.reporting import (
    append_step_summary,
    capture_health,
    format_kv,
    format_table,
    shared_options,
    write_json,
)
from repro.harness.runner import build_kaml_store, settle
from repro.obs import analyze, write_chrome_trace
from repro.obs.profile import breakdown_rows
from repro.workloads import fresh_namespace, mixed

#: Key range of the mixed workload (and the namespace sized for it).
KEY_SPACE = 512
#: SLO breach dumps printed in full; the rest are only counted.
MAX_BREACH_PRINTS = 8


def _dashboard(env, ssd, namespace_id, interval_us, done, out):
    """Print one status line per ``interval_us`` of *simulated* time."""
    while not done.triggered:
        env.try_advance(interval_us) or (yield env.timeout(interval_us))
        summary = ssd.slo.latency_summary()
        put_row = summary.get(f"slo.put.us{{namespace={namespace_id}}}") or {}
        get_row = summary.get(f"slo.store.get.us{{namespace={namespace_id}}}") or {}
        recorder = ssd.tracer.recorder
        dies = ssd.array.suspension_totals()
        print(
            f"[obs t={env.now:>10.0f}us] "
            f"put p99={put_row.get('p99', 0.0):>8.1f}us "
            f"get p99={get_row.get('p99', 0.0):>8.1f}us "
            f"breaches={len(ssd.slo.breaches):>3d} "
            f"suspensions={dies['flash_suspensions']:>4d} "
            f"(reads {dies['flash_suspended_reads']}, away {dies['flash_away_us']:.0f}us) "
            f"spans={recorder.recorded:>6d} (dropped {recorder.dropped})",
            file=out,
        )


def run(args: argparse.Namespace, out=None) -> Dict[str, Any]:
    """Build the stack, run the workload, report; returns the result dict.
    With ``--json`` the human report goes nowhere and ``out`` carries
    exactly one JSON document."""
    stream = out if out is not None else sys.stdout
    out = io.StringIO() if args.json else stream
    env, ssd, store = build_kaml_store(cache_bytes=args.cache_bytes)
    namespace_id = fresh_namespace(env, ssd, KEY_SPACE)
    journal = None
    if args.record_out:
        journal = ssd.enable_oplog(path=args.record_out)
    if args.slo_put_us is not None:
        ssd.slo.set_slo("put", args.slo_put_us)

    done = mixed(
        env, store, namespace_id,
        seed=args.seed, ops=args.ops, threads=args.threads,
        key_space=KEY_SPACE, write_fraction=args.write_fraction,
    )
    env.process(_dashboard(env, ssd, namespace_id, args.interval_us, done, out))
    env.run_until(done)
    # The trace summary must include the full causal tree, not just phase 1.
    settle(env, ssd)

    summary = ssd.tracer.summary()
    rows: List[List[Any]] = [
        [name, row["count"], row["mean_us"], row["max_us"]]
        for name, row in sorted(summary["spans"].items())
    ]
    print(file=out)
    print(
        format_table(
            "Trace summary (flight-recorder window)",
            ["span", "count", "mean us", "max us"],
            rows,
        ),
        file=out,
    )
    print(file=out)
    slo_summary = ssd.slo.latency_summary()
    for series, row in sorted(slo_summary.items()):
        print(
            format_kv(
                series,
                {k: row[k] for k in ("count", "mean", "p50", "p99", "p999")},
            ),
            file=out,
        )
        print(file=out)
    breach_dumps = ssd.slo.dump_breaches()
    print(
        f"SLO breaches: {len(ssd.slo.breaches)}"
        + (
            f" (+{ssd.slo.overflowed_breaches} beyond the retention cap)"
            if ssd.slo.overflowed_breaches
            else ""
        ),
        file=out,
    )
    for dump in breach_dumps[:MAX_BREACH_PRINTS]:
        breach = dump["breach"]
        # op_id joins the breach back to its captured journal row (0
        # when the op journal was off for this run).
        op_ref = f" op_id={breach['op_id']}" if breach.get("op_id") else ""
        print(
            f"  {breach['op']} ns={breach['namespace']} "
            f"{breach['latency_us']:.1f}us > {breach['threshold_us']:.1f}us "
            f"at t={breach['start_us']:.1f}{op_ref} "
            f"({len(dump['events'])} causally-linked events)",
            file=out,
        )

    profile_report = None
    if args.profile:
        # Reuse the kamlprof report path over the same recorded window.
        profile_report = analyze(ssd.tracer.recorder.events())
        print(file=out)
        print(
            format_table(
                "kamlprof breakdown (flight-recorder window)",
                ["op", "ns", "component", "us", "fraction"],
                breakdown_rows(profile_report, min_fraction=0.005),
            ),
            file=out,
        )

    if args.trace_out:
        write_chrome_trace(
            args.trace_out, ssd.tracer.recorder.events(), process_name="repro-obs"
        )
        print(f"chrome trace written to {args.trace_out}", file=out)
    if args.flight_out:
        ssd.tracer.recorder.write_jsonl(args.flight_out)
        print(f"flight-recorder JSONL written to {args.flight_out}", file=out)
    if args.breach_out:
        write_json(args.breach_out, breach_dumps, default=str)
        print(f"breach dumps written to {args.breach_out}", file=out)

    recorder = ssd.tracer.recorder
    capture: Dict[str, Any] = {
        "recorder": {
            "recorded": recorder.recorded,
            "retained": len(recorder.events()),
            "dropped": recorder.dropped,
        },
        "oplog": None,
    }
    if journal is not None:
        journal.close()
        capture["oplog"] = journal.counts()
        print(
            f"op journal: {capture['oplog']['recorded']} recorded, "
            f"{capture['oplog']['dropped']} dropped -> {args.record_out}",
            file=out,
        )
    print(
        f"spans: {capture['recorder']['recorded']} recorded, "
        f"{capture['recorder']['dropped']} dropped",
        file=out,
    )
    append_step_summary(
        f"**obs capture health:** {capture_health(capture)}; "
        f"SLO breaches {len(ssd.slo.breaches)}\n"
    )

    result = {
        "summary": summary,
        "slo": slo_summary,
        "breaches": breach_dumps,
        "namespace_id": namespace_id,
        "elapsed_us": env.now,
        "capture": capture,
    }
    if profile_report is not None:
        result["profile"] = profile_report
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True, default=str), file=stream)
    return result


def add_arguments(parser: argparse.ArgumentParser) -> None:
    shared_options(parser, ops=200, threads=4, seed=42, cache_bytes=1 << 20)
    parser.add_argument(
        "--write-fraction", type=float, default=0.5, help="Put share of the mix"
    )
    parser.add_argument(
        "--interval-us", type=float, default=10_000.0,
        help="simulated time between dashboard lines",
    )
    parser.add_argument(
        "--slo-put-us", type=float, default=None, help="Put ack-latency SLO"
    )
    parser.add_argument(
        "--trace-out", default=None, help="write a Chrome trace_event JSON here"
    )
    parser.add_argument(
        "--flight-out", default=None, help="write the flight-recorder JSONL here"
    )
    parser.add_argument(
        "--breach-out", default=None, help="write SLO breach dumps (JSON) here"
    )
    parser.add_argument(
        "--record-out", default=None,
        help="capture an op journal (.jsonl/.jsonl.gz) during the run",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="also print the kamlprof latency breakdown of the recorded window",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="suppress the human report and print the result dict as JSON",
    )
