"""The ``kamllint`` command line.

Usage::

    python -m repro.analysis_tools src/repro            # human output
    python -m repro.analysis_tools --json src/repro     # machine output
    python -m repro.analysis_tools --format github src/repro
    python -m repro.analysis_tools --list-rules

Exit status: 0 when clean, 1 when violations were found (or stale
pragmas under ``--strict-pragmas``), 2 on usage errors — including an
unknown rule id in ``--rules``.  Pre-commit passes individual changed
files as arguments; CI passes the whole tree with ``--format github``
so findings annotate the PR diff, plus ``--json-out`` for the report
artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis_tools.core import (
    RULE_CATALOGUE,
    LintReport,
    UnknownRuleError,
    Violation,
    run_analysis,
)


def _github_escape(text: str) -> str:
    """Escape message data for a GitHub workflow command."""
    return (
        text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )


def _render_github(violation: Violation) -> str:
    return (
        f"::error file={violation.path},line={violation.line},"
        f"col={violation.col + 1},title={violation.rule}::"
        + _github_escape(violation.message)
    )


def _report_payload(report: LintReport) -> dict:
    return {
        "violations": [violation.to_dict() for violation in report.violations],
        "count": len(report.violations),
        "stale_pragmas": [stale.to_dict() for stale in report.stale_pragmas],
        "modules": report.module_count,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis_tools",
        description="kamllint: protocol/determinism static analysis for src/repro.",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--format",
        choices=("text", "github", "json"),
        default="text",
        help="output format (github emits workflow error annotations)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output (alias for --format json)",
    )
    parser.add_argument(
        "--json-out",
        metavar="PATH",
        help="additionally write the JSON report to a file (CI artifact)",
    )
    parser.add_argument(
        "--rules",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--strict-pragmas",
        action="store_true",
        help="fail (exit 1) when stale allow[...] pragmas are found",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rule ids and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, description in sorted(RULE_CATALOGUE.items()):
            print(f"{rule}  {description}")
        return 0

    if not args.paths:
        parser.print_usage(sys.stderr)
        print("error: no paths given (try: src/repro)", file=sys.stderr)
        return 2

    rules = None
    if args.rules:
        rules = [rule.strip() for rule in args.rules.split(",") if rule.strip()]

    try:
        report = run_analysis(args.paths, rules=rules)
    except UnknownRuleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    output_format = "json" if args.json else args.format
    payload = _report_payload(report)
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")

    if output_format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif output_format == "github":
        for violation in report.violations:
            print(_render_github(violation))
        for stale in report.stale_pragmas:
            print(
                f"::warning file={stale.path},line={max(stale.line, 1)},"
                f"title=stale-pragma::" + _github_escape(stale.message)
            )
    else:
        for violation in report.violations:
            print(violation.render())
        for stale in report.stale_pragmas:
            print(stale.render())
        summary = f"kamllint: {len(report.violations)} violation(s)"
        if report.stale_pragmas:
            summary += f", {len(report.stale_pragmas)} stale pragma(s)"
        print(summary if (report.violations or report.stale_pragmas) else "kamllint: clean")

    if report.violations:
        return 1
    if args.strict_pragmas and report.stale_pragmas:
        return 1
    return 0
