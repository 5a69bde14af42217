"""Performance-baseline bookkeeping and the CI regression gate.

``benchmarks/baseline.json`` pins the expected Figure 5 smoke-bench
numbers: per-point bandwidth (higher is better) and the SLO p99
latencies of the final KAML stack (lower is better).  The simulation is
deterministic, so the checked-in values are machine-independent; the
gate compares a fresh run's artifact against them with a relative
tolerance and fails CI on a >15% regression.

The baseline also carries a ``perf`` section from the
``python -m repro.harness perf`` benchmark: the deterministic
``sim_events`` count of each canonical workload, which gates event
bloat exactly.  Wall-clock throughput is not gated here — it is
meaningless across machines; kamlbench's spin-normalised
``host_ops_per_s`` is the host-time record.

A ``cluster`` section carries the serving-tier numbers from
``python -m repro.harness cluster --json-out``: aggregate throughput
across the matrix cells and the worst rebalance p99.  Both are
simulated-time metrics, so they are deterministic and gate at the
strict tolerance like ``sim_events``.

Update the baseline deliberately (after a change that is *supposed* to
shift performance) with ``make rebaseline`` — never by editing numbers
by hand.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.harness.reporting import append_step_summary, read_json, write_json

#: Default relative tolerance: a metric may degrade by up to 15%.
DEFAULT_TOLERANCE = 0.15

#: Absolute tolerance (in fraction points) for kamlprof component
#: fractions: a component's share of request latency may move by up to
#: 10 percentage points before the gate calls it a bottleneck shift.
#: Absolute, not relative — a component going 0.5% -> 1.5% is noise, a
#: component going 20% -> 35% is the device's behavior changing.
BREAKDOWN_TOLERANCE_PP = 0.10


#: Per-workload perf metrics carried in the baseline:
#: ``(field, lower_is_regression)``.  ``sim_events`` rising is a
#: regression (event bloat) and is deterministic, so it gates at the
#: strict tolerance on every machine.
PERF_FIELDS = (("sim_events", False),)


def build_perf_section(perf_artifact: Dict[str, Any]) -> Dict[str, Any]:
    """Distil a ``harness perf --json`` artifact into baseline form."""
    workloads = {}
    for name, row in (perf_artifact.get("workloads") or {}).items():
        workloads[name] = {
            field: float(row[field]) for field, _lower in PERF_FIELDS
            if field in row
        }
    return {"tolerance": DEFAULT_TOLERANCE, "workloads": workloads}


#: Cluster serving-tier metrics carried in the baseline:
#: ``(field, lower_is_regression)``.  Aggregate throughput dropping is a
#: regression; rebalance p99 rising is one.  Both are simulated-time
#: numbers (ops per simulated second, microseconds of simulated
#: migration latency), so they are deterministic and machine-independent.
CLUSTER_FIELDS = (
    ("ops_per_sec", True),
    ("rebalance_p99_us", False),
)


def build_cluster_section(cluster_artifact: Dict[str, Any]) -> Dict[str, Any]:
    """Distil a ``harness cluster --json-out`` report into baseline form."""
    section: Dict[str, Any] = {
        "tolerance": DEFAULT_TOLERANCE,
        "shards": list(cluster_artifact.get("shards") or []),
        "seeds": list(cluster_artifact.get("seeds") or []),
    }
    for field, _lower in CLUSTER_FIELDS:
        if field in cluster_artifact:
            section[field] = float(cluster_artifact[field])
    return section


def build_breakdown_section(prof_artifact: Dict[str, Any]) -> Dict[str, Any]:
    """Distil a ``harness prof --json-out`` report into baseline form.

    The fractions are the kamlprof per-(op, namespace) component shares;
    the simulation is deterministic, so they are machine-independent and
    gate with an *absolute* percentage-point tolerance — the gate fires
    when the bottleneck moves, not when throughput wobbles.
    """
    from repro.obs.profile import breakdown_fractions

    return {
        "workload": prof_artifact.get("workload", "?"),
        "seed": prof_artifact.get("seed"),
        "tolerance_pp": BREAKDOWN_TOLERANCE_PP,
        "fractions": breakdown_fractions(prof_artifact),
    }


def build_baseline(
    result: Dict[str, Any],
    perf_artifact: Optional[Dict[str, Any]] = None,
    prof_artifact: Optional[Dict[str, Any]] = None,
    cluster_artifact: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Distil a fig5 result (or its JSON artifact) into baseline form."""
    metrics = result.get("metrics") or {}
    slo = result.get("slo") or {}
    baseline = {
        "experiment": "fig5_bandwidth",
        "tolerance": DEFAULT_TOLERANCE,
        "bandwidth_mb_s": {key: float(value) for key, value in metrics.items()},
        "latency_p99_us": {
            series: float(row["p99"])
            for series, row in slo.items()
            if "p99" in row
        },
    }
    if perf_artifact is not None:
        baseline["perf"] = build_perf_section(perf_artifact)
    if prof_artifact is not None:
        baseline["breakdown"] = build_breakdown_section(prof_artifact)
    if cluster_artifact is not None:
        baseline["cluster"] = build_cluster_section(cluster_artifact)
    return baseline


def gate_rows(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: Optional[float] = None,
) -> Iterator[Dict[str, Any]]:
    """One row per baseline metric: the single walk both renderers use.

    Each row carries ``kind``/``key``, the ``value`` measured now (None
    when the current run lacks it — coverage must not silently shrink),
    the ``base`` value, ``delta`` (relative; absolute for the breakdown
    fractions, whose rows have ``pp`` set), the ``limit`` it was held to
    and ``failed``.  Bandwidth and throughput regress when they *drop*
    more than the limit, latencies and event counts when they *rise*; a
    breakdown fraction fails on a shift in either direction (a
    bottleneck shrinking means another component grew).  New metrics in
    the current run are never rows and never fail.
    """
    tol = tolerance if tolerance is not None else float(
        baseline.get("tolerance", DEFAULT_TOLERANCE)
    )

    def section_tolerance(section: Dict[str, Any]) -> float:
        return tol if tolerance is not None else float(section.get("tolerance", tol))

    def rows(kind, expected, actual, limit, lower_is_regression=None):
        pp = lower_is_regression is None  # absolute shift, either direction
        for key in sorted(expected):
            base = float(expected[key])
            row = {"kind": kind, "key": key, "base": base, "limit": limit,
                   "pp": pp, "value": None, "delta": None, "failed": True}
            if key in actual:
                value = float(actual[key])
                if pp:
                    delta = value - base
                    failed = abs(delta) > limit
                else:
                    if base == 0.0:
                        delta = 0.0 if value == 0.0 else float("inf")
                    else:
                        delta = (value - base) / base
                    failed = delta < -limit if lower_is_regression else delta > limit
                row.update(value=value, delta=delta, failed=failed)
            yield row

    yield from rows("bandwidth", baseline.get("bandwidth_mb_s", {}),
                    current.get("bandwidth_mb_s", {}), tol, True)
    yield from rows("p99-latency", baseline.get("latency_p99_us", {}),
                    current.get("latency_p99_us", {}), tol, False)
    base_perf = baseline.get("perf") or {}
    current_workloads = (current.get("perf") or {}).get("workloads", {})
    for field, lower_is_regression in PERF_FIELDS:
        yield from rows(
            "perf",
            {f"{workload}/{field}": row[field]
             for workload, row in (base_perf.get("workloads") or {}).items()
             if field in row},
            {f"{workload}/{field}": row[field]
             for workload, row in current_workloads.items() if field in row},
            section_tolerance(base_perf), lower_is_regression,
        )
    base_cluster = baseline.get("cluster") or {}
    current_cluster = current.get("cluster") or {}
    for field, lower_is_regression in CLUSTER_FIELDS:
        if field in base_cluster:
            yield from rows(
                "cluster", {field: base_cluster[field]},
                {field: current_cluster[field]} if field in current_cluster else {},
                section_tolerance(base_cluster), lower_is_regression,
            )
    base_breakdown = baseline.get("breakdown") or {}
    yield from rows(
        "breakdown", base_breakdown.get("fractions") or {},
        (current.get("breakdown") or {}).get("fractions", {}),
        float(base_breakdown.get("tolerance_pp", BREAKDOWN_TOLERANCE_PP)),
    )


def compare(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: Optional[float] = None,
) -> Tuple[List[str], List[str]]:
    """Return ``(failures, report_lines)`` for current vs baseline."""
    failures: List[str] = []
    report: List[str] = []
    for row in gate_rows(current, baseline, tolerance):
        kind, key = row["kind"], row["key"]
        value, base, delta, limit = row["value"], row["base"], row["delta"], row["limit"]
        if value is None:
            failures.append(f"{kind}: {key!r} missing from the current run")
            continue
        marker = "FAIL" if row["failed"] else "ok"
        if row["pp"]:
            report.append(
                f"  [{marker:>4}] {kind} {key}: {value:.1%} vs {base:.1%} "
                f"({delta * 100:+.1f}pp, limit {limit * 100:.0f}pp)"
            )
            failure = (
                f"{kind}: {key} shifted {delta * 100:+.1f}pp (limit "
                f"{limit * 100:.0f}pp): {value:.1%} vs baseline {base:.1%}"
            )
        else:
            report.append(
                f"  [{marker:>4}] {kind} {key}: {value:.3f} vs {base:.3f} "
                f"({delta:+.1%}, tolerance {limit:.0%})"
            )
            failure = (
                f"{kind}: {key} changed {delta:+.1%} "
                f"(limit {limit:.0%}): {value:.3f} vs baseline {base:.3f}"
            )
        if row["failed"]:
            failures.append(failure)
    return failures, report


def markdown_summary(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: Optional[float] = None,
) -> str:
    """The comparison as a GitHub-flavoured markdown table.

    Written to ``$GITHUB_STEP_SUMMARY`` by :func:`main` so the perf gate's
    numbers show up on the workflow run page without digging into logs.
    """
    tol = tolerance if tolerance is not None else float(
        baseline.get("tolerance", DEFAULT_TOLERANCE)
    )
    lines = [
        f"### Perf gate: fig5 smoke bench + sim events + cluster tier "
        f"(tolerance {tol:.0%})",
        "",
        "| metric | current | baseline | delta | status |",
        "|---|---:|---:|---:|---|",
    ]
    for row in gate_rows(current, baseline, tolerance):
        value, base, delta = row["value"], row["base"], row["delta"]
        shown = (lambda x: f"{x:.1%}") if row["pp"] else (lambda x: f"{x:.3f}")
        if value is None:
            cells = ["missing", shown(base), "—"]
        elif row["pp"]:
            if abs(delta) <= 0.001 and base == 0.0:
                continue  # all-zero components would drown the table
            cells = [shown(value), shown(base), f"{delta * 100:+.1f}pp"]
        else:
            cells = [shown(value), shown(base), f"{delta:+.1%}"]
        status = "FAIL" if row["failed"] else "ok"
        lines.append(
            f"| {row['kind']}: {row['key']} | " + " | ".join(cells) + f" | {status} |"
        )
    lines.append("")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.baseline",
        description="Compare a fig5 smoke-bench artifact against the "
                    "checked-in performance baseline.",
    )
    parser.add_argument(
        "--artifact", default="benchmarks/artifacts/fig5_bandwidth.json",
        help="result JSON written by the smoke benchmark",
    )
    parser.add_argument(
        "--perf-artifact", default="benchmarks/artifacts/perf.json",
        help="result JSON written by 'python -m repro.harness perf --json'; "
             "skipped if the file does not exist",
    )
    parser.add_argument(
        "--prof-artifact", default="benchmarks/artifacts/prof.json",
        help="report JSON written by 'python -m repro.harness prof "
             "--json-out'; skipped if the file does not exist",
    )
    parser.add_argument(
        "--cluster-artifact", default="benchmarks/artifacts/cluster.json",
        help="report JSON written by 'python -m repro.harness cluster "
             "--json-out'; skipped if the file does not exist",
    )
    parser.add_argument(
        "--baseline", default="benchmarks/baseline.json",
        help="checked-in baseline to gate against",
    )
    parser.add_argument(
        "--rebaseline", action="store_true",
        help="overwrite the baseline with the current artifact's numbers",
    )
    parser.add_argument(
        "--diff-out", default="benchmarks/artifacts/diff_report.json",
        help="on failure, write a differential attribution report "
             "(baseline vs current) here; '' disables",
    )
    args = parser.parse_args(argv)

    optional = {  # section -> artifact, or None when the file is absent
        section: read_json(path) if path and os.path.exists(path) else None
        for section, path in (
            ("perf", args.perf_artifact),
            ("breakdown", args.prof_artifact),
            ("cluster", args.cluster_artifact),
        )
    }
    current = build_baseline(
        read_json(args.artifact), optional["perf"], optional["breakdown"],
        optional["cluster"],
    )
    if args.rebaseline:
        for section, artifact in optional.items():
            if artifact is None:
                print(
                    f"note: no {section} artifact; the rewritten baseline has "
                    f"no '{section}' section (run 'make rebaseline' to "
                    "regenerate everything)",
                    file=sys.stderr,
                )
        write_json(args.baseline, current)
        print(f"baseline rewritten from {args.artifact} -> {args.baseline}")
        return 0

    baseline = read_json(args.baseline)
    failures, report = compare(current, baseline)
    append_step_summary(markdown_summary(current, baseline))
    print(f"perf gate: {args.artifact} vs {args.baseline}")
    for line in report:
        print(line)
    if failures:
        print(f"\nPERF GATE FAILED ({len(failures)} regression(s)):",
              file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        if args.diff_out:
            # Ship first-round triage with the red gate: which component
            # owns the shift, per docs/replay.md.
            from repro.obs.diff import diff_reports, markdown_diff

            diff = diff_reports(baseline, current)
            diff["a"] = args.baseline
            diff["b"] = args.artifact
            write_json(args.diff_out, diff)
            print(f"differential report written to {args.diff_out}",
                  file=sys.stderr)
            append_step_summary(
                markdown_diff(diff, title="Perf-gate differential attribution")
            )
        print(
            "\nIf the change is intentional, refresh the baseline with "
            "'make rebaseline' and commit benchmarks/baseline.json.",
            file=sys.stderr,
        )
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
