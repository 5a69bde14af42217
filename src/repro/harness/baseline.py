"""The Figure 5 paper-shape baseline and its CI gate.

``benchmarks/baseline.json`` pins the expected Figure 5 smoke-bench
numbers: per-point bandwidth (higher is better) and the SLO p99
latencies of the final KAML stack (lower is better).  The simulation is
deterministic, so the checked-in values are machine-independent; the
gate compares a fresh run's artifact against them with a relative
tolerance and fails CI on a >15% regression.

Everything kamlbench measures (event counts, host time, per-layer and
cluster numbers) lives in the committed ``BENCH_<pr>.json`` records
instead, diffed by ``benchmarks/bench_diff.py``.

Update the baseline deliberately (after a change that is *supposed* to
shift the figure) with ``make rebaseline`` — never by editing numbers
by hand.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.harness.reporting import append_step_summary, read_json, write_json

#: Default relative tolerance: a metric may degrade by up to 15%.
DEFAULT_TOLERANCE = 0.15


def build_baseline(result: Dict[str, Any]) -> Dict[str, Any]:
    """Distil a fig5 result (or its JSON artifact) into baseline form."""
    metrics = result.get("metrics") or {}
    slo = result.get("slo") or {}
    return {
        "experiment": "fig5_bandwidth",
        "tolerance": DEFAULT_TOLERANCE,
        "bandwidth_mb_s": {key: float(value) for key, value in metrics.items()},
        "latency_p99_us": {
            series: float(row["p99"])
            for series, row in slo.items()
            if "p99" in row
        },
    }


def gate_rows(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: Optional[float] = None,
) -> Iterator[Dict[str, Any]]:
    """One row per baseline metric: the single walk both renderers use.

    Each row carries ``kind``/``key``, the ``value`` measured now (None
    when the current run lacks it — coverage must not silently shrink),
    the ``base`` value, the relative ``delta``, the ``limit`` it was held
    to and ``failed``.  Bandwidth regresses when it *drops* more than the
    limit, latency when it *rises*.  New metrics in the current run are
    never rows and never fail.
    """
    limit = tolerance if tolerance is not None else float(
        baseline.get("tolerance", DEFAULT_TOLERANCE)
    )
    for kind, section, lower_is_regression in (
        ("bandwidth", "bandwidth_mb_s", True),
        ("p99-latency", "latency_p99_us", False),
    ):
        actual = current.get(section, {})
        for key, pinned in sorted(baseline.get(section, {}).items()):
            base = float(pinned)
            row = {"kind": kind, "key": key, "base": base, "limit": limit,
                   "value": None, "delta": None, "failed": True}
            if key in actual:
                value = float(actual[key])
                if base == 0.0:
                    delta = 0.0 if value == 0.0 else float("inf")
                else:
                    delta = (value - base) / base
                failed = delta < -limit if lower_is_regression else delta > limit
                row.update(value=value, delta=delta, failed=failed)
            yield row


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
        report.append(
            f"  [{marker:>4}] {kind} {key}: {value:.3f} vs {base:.3f} "
            f"({delta:+.1%}, tolerance {limit:.0%})"
        )
        if row["failed"]:
            failures.append(
                f"{kind}: {key} changed {delta:+.1%} "
                f"(limit {limit:.0%}): {value:.3f} vs baseline {base:.3f}"
            )
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
        f"### Perf gate: fig5 smoke bench (tolerance {tol:.0%})",
        "",
        "| metric | current | baseline | delta | status |",
        "|---|---:|---:|---:|---|",
    ]
    for row in gate_rows(current, baseline, tolerance):
        value, base, delta = row["value"], row["base"], row["delta"]
        if value is None:
            cells = ["missing", f"{base:.3f}", "—"]
        else:
            cells = [f"{value:.3f}", f"{base:.3f}", f"{delta:+.1%}"]
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
        "--baseline", default="benchmarks/baseline.json",
        help="checked-in baseline to gate against",
    )
    parser.add_argument(
        "--rebaseline", action="store_true",
        help="overwrite the baseline with the current artifact's numbers",
    )
    args = parser.parse_args(argv)

    current = build_baseline(read_json(args.artifact))
    if args.rebaseline:
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
