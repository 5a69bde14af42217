"""``python -m repro.harness prof`` — the seeded-run driver.

Runs a seeded workload against the full KAML store stack with an
enlarged flight recorder and reports every view of that one run:

* the kamlprof breakdown (:mod:`repro.obs.profile`): per-namespace
  component breakdowns (fractions sum to 1.0 by construction),
  background/device activity, the slowest-request exemplars, and the
  device utilization snapshot;
* the SLO latency summary and, with ``--slo-put-us``, the breach dumps
  (printed, and carried in the ``--json-out`` report under ``breaches``);
* a Chrome ``trace_event`` file (``--trace-out``) loadable in Perfetto or
  ``chrome://tracing``, and collapsed stacks (``--flame-out``);
* the kamltrace op journal (``--record-out``), armed before the load
  phase so that it replays on a fresh stack.

Everything is simulated time, so a fixed ``--seed`` produces a
bit-identical breakdown JSON (the ``prof_breakdown_mini`` digest pins
one).

Example::

    python -m repro.harness prof --workload ycsb-b --ops 1000 \
        --flame-out /tmp/kaml.folded --json-out /tmp/prof.json
    python -m repro.harness prof --workload mixed --ops 200 \
        --slo-put-us 100 --trace-out /tmp/kaml_trace.json
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict

from repro.harness.reporting import (
    append_step_summary,
    capture_health,
    format_kv,
    format_table,
    shared_options,
    write_json,
)
from repro.harness.runner import build_kaml_store, settle
from repro.obs import analyze, collapsed_stacks, write_chrome_trace, write_collapsed
from repro.obs.profile import breakdown_rows, markdown_breakdown
from repro.obs.trace import FlightRecorder
from repro.workloads import SIM_WORKLOADS, prepare_workload

#: Breakdown rows below this fraction are hidden from the console table.
MIN_FRACTION = 0.005
#: SLO breach dumps printed in full; the rest are only counted.
MAX_BREACH_PRINTS = 8


def _build_stack(cache_bytes: int, recorder_capacity: int):
    env, ssd, store = build_kaml_store(cache_bytes=cache_bytes)
    # The default ring keeps the last 16Ki spans — plenty for breach
    # dumps, too small for a whole profiled run.  Swap in a large ring
    # before any span records (the SLO tracker reads it through the tracer).
    ssd.tracer.recorder = FlightRecorder(capacity=recorder_capacity)
    return env, ssd, store


def _start_measurement(env, ssd) -> None:
    """Reset the recorder after setup/load.

    The load phase's spans would dominate the profile and say nothing
    about steady state, so the device is drained and the ring cleared
    before measurement begins.  Draining first matters: setup's detached
    Put phase-2/3 spans are still in flight when the load loop returns,
    and clearing without the drain would strand them in the measured
    window as orphaned load-phase traces.
    """
    settle(env, ssd)
    ssd.tracer.recorder.clear()


def _run_workload(env, ssd, store, args: argparse.Namespace):
    """Load, measure and drain; returns the op journal (None unless
    ``--record-out``), closed even when the run raises."""
    # Armed before the load phase, so the journal replays on a fresh stack.
    journal = ssd.enable_oplog(path=args.record_out) if args.record_out else None
    try:
        measured_phase = prepare_workload(
            args.workload, env, ssd, store,
            seed=args.seed, ops=args.ops, threads=args.threads,
            key_space=args.key_space, records=args.records,
        )
        _start_measurement(env, ssd)
        # Armed after the ring is cleared: a load-phase Put must not be
        # judged against spans that are already gone.
        if args.slo_put_us is not None:
            ssd.slo.set_slo("put", args.slo_put_us)
        measured_phase()
        # Detached spans must finish so the trees are complete, and every
        # captured command must ack before the journal closes.
        settle(env, ssd)
    finally:
        if journal is not None:
            journal.close()
    return journal


def _print_breaches(ssd, breaches, out) -> None:
    slo = ssd.slo
    overflow = (
        f" (+{slo.overflowed_breaches} beyond the retention cap)"
        if slo.overflowed_breaches else ""
    )
    print(f"SLO breaches: {len(slo.breaches)}{overflow}", file=out)
    window_ms = slo.window_slack_us / 1000.0
    for dump in breaches[:MAX_BREACH_PRINTS]:
        breach = dump["breach"]
        # op_id joins the breach back to its journal row (0 without
        # --record-out).
        op_ref = f" op_id={breach['op_id']}" if breach["op_id"] else ""
        print(
            f"  {breach['op']} ns={breach['namespace']} "
            f"{breach['latency_us']:.1f}us > {breach['threshold_us']:.1f}us "
            f"at t={breach['start_us']:.1f}{op_ref} "
            f"({len(dump['events'])} events in the ±{window_ms:g} ms window)",
            file=out,
        )
    print(file=out)


def run(args: argparse.Namespace, out=None) -> Dict[str, Any]:
    """Build the stack, run the workload, profile; returns the report."""
    out = out if out is not None else sys.stdout
    env, ssd, store = _build_stack(args.cache_bytes, args.recorder_capacity)
    journal = _run_workload(env, ssd, store, args)

    recorder = ssd.tracer.recorder
    events = recorder.events()
    report = analyze(events)
    report["workload"] = args.workload
    report["seed"] = args.seed
    report["elapsed_us"] = env.now
    report["recorder"] = {
        "recorded": recorder.recorded,
        "retained": len(events),
        "dropped": recorder.dropped,
    }
    # SLO percentiles and breach dumps ride along, so one artifact holds
    # every view of the run.
    report["slo"] = ssd.slo.latency_summary()
    report["breaches"] = ssd.slo.dump_breaches()
    report["capture"] = {
        "recorder": dict(report["recorder"]),
        "oplog": journal.counts() if journal is not None else None,
    }

    print(
        format_table(
            f"kamlprof breakdown ({args.workload}, seed {args.seed})",
            ["op", "ns", "component", "us", "fraction"],
            breakdown_rows(report, min_fraction=MIN_FRACTION),
        ),
        file=out,
    )
    print(file=out)
    for op, by_namespace in sorted(report["requests"].items()):
        for namespace, bucket in sorted(by_namespace.items()):
            print(
                format_kv(
                    f"{op} ns={namespace}",
                    {
                        key: bucket[key]
                        for key in ("count", "mean_us", "p50_us", "p99_us", "max_us")
                    },
                ),
                file=out,
            )
            print(file=out)
    if report["background"]:
        rows = [
            [name, bucket["count"], round(bucket["total_us"], 1)]
            for name, bucket in sorted(report["background"].items())
        ]
        print(
            format_table(
                "Background / device activity", ["trace", "count", "total us"], rows
            ),
            file=out,
        )
        print(file=out)
    if report["exemplars"]:
        print(f"Top {len(report['exemplars'])} slowest requests:", file=out)
        for row in report["exemplars"]:
            top = sorted(
                row["components"].items(), key=lambda item: (-item[1], item[0])
            )
            detail = ", ".join(f"{comp} {us:.1f}us" for comp, us in top[:3])
            print(
                f"  {row['op']} ns={row['namespace']} "
                f"{row['latency_us']:.1f}us at t={row['start_us']:.1f} "
                f"({detail})",
                file=out,
            )
        print(file=out)
    if args.slo_put_us is not None:
        _print_breaches(ssd, report["breaches"], out)
    print(format_kv("Device utilization", ssd.utilization_report()), file=out)
    print(
        f"\nspans: {recorder.recorded} recorded, {recorder.dropped} dropped "
        f"(ring capacity {args.recorder_capacity})",
        file=out,
    )
    oplog = report["capture"]["oplog"]
    if oplog is not None:
        print(
            f"op journal: {oplog['recorded']} recorded, {oplog['dropped']} "
            f"dropped -> {args.record_out}",
            file=out,
        )

    if args.flame_out:
        write_collapsed(args.flame_out, collapsed_stacks(events))
        print(f"collapsed stacks written to {args.flame_out}", file=out)
    if args.trace_out:
        write_chrome_trace(args.trace_out, events, process_name="repro-prof")
        print(f"chrome trace written to {args.trace_out}", file=out)
    if args.json_out:
        write_json(args.json_out, report, default=str)
        print(f"report JSON written to {args.json_out}", file=out)

    append_step_summary(
        markdown_breakdown(
            report, title=f"kamlprof latency breakdown ({args.workload})"
        )
        + f"\n**Capture health:** {capture_health(report['capture'])}\n"
    )
    return report


def add_arguments(parser: argparse.ArgumentParser) -> None:
    shared_options(
        parser, workload=SIM_WORKLOADS, ops=1000, threads=4, records=1000,
        key_space=512, seed=7, cache_bytes=1 << 20, json_out=None,
    )
    parser.add_argument(
        "--recorder-capacity", type=int, default=1 << 18,
        help="flight-recorder ring size for the profiled run",
    )
    parser.add_argument(
        "--slo-put-us", type=float, default=None,
        help="Put ack-latency SLO; breach dumps go into the report",
    )
    parser.add_argument(
        "--flame-out", default=None,
        help="write flamegraph.pl/speedscope collapsed stacks here",
    )
    parser.add_argument(
        "--trace-out", default=None, help="write a Chrome trace_event JSON here"
    )
    parser.add_argument(
        "--record-out", default=None,
        help="capture the op journal (.jsonl/.jsonl.gz), load phase included",
    )
