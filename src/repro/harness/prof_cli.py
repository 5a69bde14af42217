"""``python -m repro.harness prof`` — the kamlprof profiling driver.

Runs a seeded workload against the full KAML store stack with an
enlarged flight recorder, then walks the recorded span trees through
:mod:`repro.obs.profile` to print where each request's latency went:
per-namespace component breakdowns (fractions sum to 1.0 by
construction), background/device activity, the slowest-request
exemplars, and the device utilization snapshot.  The same run samples
the :mod:`repro.obs.timeseries` telemetry ring, so one command yields
both the *why is it slow* and the *what was the device doing* views.

Everything is simulated time, so a fixed ``--seed`` produces a
bit-identical breakdown JSON — which is what lets the perf gate pin
component fractions in ``benchmarks/baseline.json``.

Example::

    python -m repro.harness prof --workload ycsb-b --ops 1000 \
        --flame-out /tmp/kaml.folded --json-out /tmp/prof.json
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
from repro.obs import analyze, collapsed_stacks, write_collapsed
from repro.obs.profile import breakdown_rows, markdown_breakdown
from repro.obs.trace import FlightRecorder
from repro.workloads import SIM_WORKLOADS, prepare_workload

#: Breakdown rows below this fraction are hidden from the console table.
MIN_FRACTION = 0.005


def _build_stack(cache_bytes: int, recorder_capacity: int):
    env, ssd, store = build_kaml_store(cache_bytes=cache_bytes)
    # The default ring keeps the last 16Ki spans — plenty for breach
    # dumps, too small for a whole profiled run.  Swap in a large ring
    # shared by the tracer and the SLO tracker before any span records.
    recorder = FlightRecorder(capacity=recorder_capacity)
    ssd.tracer.recorder = recorder
    ssd.slo.recorder = recorder
    return env, ssd, store


def _start_measurement(env, ssd, args) -> None:
    """Reset the recorder after setup/load and arm the telemetry sampler.

    The load phase's spans would dominate the profile and say nothing
    about steady state, so the device is drained and the ring cleared
    before measurement begins.  Draining first matters: setup's detached
    Put phase-2/3 spans are still in flight when the load loop returns,
    and clearing without the drain would strand them in the measured
    window as orphaned load-phase traces.  The sampler starts here
    because the namespaces under test exist now (per-namespace rate
    probes bind at install).
    """
    settle(env, ssd)
    ssd.tracer.recorder.clear()
    if not args.no_timeseries:
        ssd.enable_timeseries(interval_us=args.interval_us)


def run(args: argparse.Namespace, out=None) -> Dict[str, Any]:
    """Build the stack, run the workload, profile; returns the report."""
    out = out if out is not None else sys.stdout
    env, ssd, store = _build_stack(args.cache_bytes, args.recorder_capacity)
    measured_phase = prepare_workload(
        args.workload, env, ssd, store,
        seed=args.seed, ops=args.ops, threads=args.threads,
        key_space=args.key_space, records=args.records,
    )
    _start_measurement(env, ssd, args)
    measured_phase()

    # Detached spans must finish so the trees are complete.
    settle(env, ssd)
    if ssd.timeseries is not None:
        ssd.timeseries.stop()
        ssd.timeseries.sample_now()  # end-state sample after the drain

    recorder = ssd.tracer.recorder
    events = recorder.events()
    report = analyze(events, top_n=args.top)
    report["workload"] = args.workload
    report["seed"] = args.seed
    report["elapsed_us"] = env.now
    report["recorder"] = {
        "recorded": recorder.recorded,
        "retained": len(events),
        "dropped": recorder.dropped,
    }
    # SLO percentiles and telemetry means ride along so `harness diff`
    # can compare two prof artifacts on all three axes at once.
    report["slo"] = ssd.slo.latency_summary()
    if ssd.timeseries is not None:
        report["telemetry"] = {
            "summary": ssd.timeseries.summary(),
            "samples": len(ssd.timeseries.samples),
            "dropped": ssd.timeseries.dropped,
        }
    report["capture"] = {"recorder": dict(report["recorder"]), "oplog": None}

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
    print(format_kv("Device utilization", ssd.utilization_report()), file=out)
    if ssd.timeseries is not None:
        summary = ssd.timeseries.summary()
        rows = [
            [name, round(s["min"], 3), round(s["mean"], 3), round(s["max"], 3)]
            for name, s in sorted(summary.items())
        ]
        print(file=out)
        print(
            format_table(
                f"Telemetry ({len(ssd.timeseries.samples)} samples, "
                f"{ssd.timeseries.interval_us:.0f}us interval)",
                ["series", "min", "mean", "max"],
                rows,
            ),
            file=out,
        )
    print(
        f"\nspans: {recorder.recorded} recorded, {recorder.dropped} dropped "
        f"(ring capacity {args.recorder_capacity})",
        file=out,
    )

    if args.flame_out:
        write_collapsed(args.flame_out, collapsed_stacks(events))
        print(f"collapsed stacks written to {args.flame_out}", file=out)
    if args.json_out:
        write_json(args.json_out, report)
        print(f"breakdown JSON written to {args.json_out}", file=out)
    if args.timeseries_out and ssd.timeseries is not None:
        ssd.timeseries.write_json(args.timeseries_out)
        print(f"telemetry JSON written to {args.timeseries_out}", file=out)

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
        "--interval-us", type=float, default=1000.0,
        help="simulated time between telemetry samples",
    )
    parser.add_argument(
        "--no-timeseries", action="store_true",
        help="skip the telemetry sampler (pure span attribution)",
    )
    parser.add_argument(
        "--top", type=int, default=5, help="slowest-request exemplars to keep"
    )
    parser.add_argument(
        "--flame-out", default=None,
        help="write flamegraph.pl/speedscope collapsed stacks here",
    )
    parser.add_argument(
        "--timeseries-out", default=None, help="write the telemetry JSON here"
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``prof`` parser, for callers that profile in-process
    (``perf --profile``, ``diff --seed-a/--seed-b``)."""
    parser = argparse.ArgumentParser(prog="python -m repro.harness prof")
    add_arguments(parser)
    return parser
