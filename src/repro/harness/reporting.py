"""Plain-text tables, JSON reports and the one matrix reporter.

``format_table``/``format_kv`` render the paper-style tables; ``to_json``
serialises an experiment result dict (title/headers/rows/metrics, plus an
optional embedded metrics-registry export) for the CI artifact step.
The rest is what every harness command shares: ``shared_options``
declares the common flags once, ``read_json``/``write_json``/
``append_step_summary`` are the artifact plumbing, and ``emit`` ships a
``crash``/``cluster`` matrix report — JSON with live objects stripped
(``strip_live``), flight-recorder dumps of the failing cells
(``write_flight_dumps``), the ``step_summary`` markdown table and the
verdict with a reproduction hint.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import MetricsRegistry, Tracer, to_builtin


def wallclock() -> float:
    """Wall-clock seconds for harness progress reporting.

    The single sanctioned host-clock boundary in the repo: experiment
    logic runs on simulated time (``env.now``), and only the harness's
    "how long did this take in real life" lines may read the host clock
    — through here, so kamllint can allowlist exactly one call site.
    """
    return time.time()  # kamllint: allow[KL-DET001] harness reporting boundary


def _render(value: Any) -> str:
    if isinstance(value, float):
        if value >= 100:
            return f"{value:,.0f}"
        if value >= 1:
            return f"{value:,.2f}"
        return f"{value:.3f}"
    return str(value)


def format_table(title: str, headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Fixed-width text table with a title rule.

    Rows shorter than ``headers`` are padded with empty cells; rows longer
    than ``headers`` grow the table (trailing columns get empty headers).
    """
    rendered = [[_render(cell) for cell in row] for row in rows]
    columns = max([len(headers)] + [len(row) for row in rendered])
    names = list(headers) + [""] * (columns - len(headers))
    for row in rendered:
        row.extend([""] * (columns - len(row)))
    widths = [
        max(len(names[col]), *(len(row[col]) for row in rendered)) if rendered
        else len(names[col])
        for col in range(columns)
    ]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(names)))
    lines.append("  ".join("-" * widths[i] for i in range(columns)))
    lines.extend(
        "  ".join(row[i].ljust(widths[i]) for i in range(columns))
        for row in rendered
    )
    return "\n".join(lines)


def format_kv(title: str, pairs: Dict[str, Any]) -> str:
    lines = [title, "=" * len(title)]
    width = max(len(k) for k in pairs) if pairs else 0
    lines.extend(
        f"{key.ljust(width)}  {_render(value)}" for key, value in pairs.items()
    )
    return "\n".join(lines)


def to_json(result: Dict[str, Any], path: Optional[str] = None, indent: int = 2) -> str:
    """Serialise an experiment result dict (and optionally write it).

    Embedded :class:`MetricsRegistry` values (e.g. a ``"registry"`` key)
    are expanded through the obs exporter and :class:`Tracer` values
    collapse to their per-span summary; anything else non-serialisable
    falls back to ``str``.
    """

    def _expand(value: Any) -> Any:
        if isinstance(value, MetricsRegistry):
            return to_builtin(value)
        if isinstance(value, Tracer):
            return value.summary()
        return value

    payload = {key: _expand(value) for key, value in result.items()}
    text = json.dumps(payload, indent=indent, sort_keys=True, default=str)
    if path is not None:
        with open(path, "w") as handle:
            handle.write(text)
            handle.write("\n")
    return text


# ---------------------------------------------------------------------------
# Shared command plumbing
# ---------------------------------------------------------------------------

#: The flags several subcommands take, declared once; each subcommand
#: names the ones it uses, with its own default.
_SHARED_OPTIONS: Dict[str, Dict[str, Any]] = {
    "seed": {"type": int, "help": "workload RNG seed"},
    "ops": {"type": int, "help": "total operations"},
    "threads": {"type": int, "help": "concurrent workers"},
    "cache_bytes": {"type": int, "help": "host cache size (store layer)"},
    "records": {"type": int, "help": "YCSB table size (ycsb-b)"},
    "key_space": {"type": int, "help": "key range (mixed and synth-* workloads)"},
    "workload": {"help": "which workload to run"},
    "json_out": {"help": "write the report JSON here"},
}


def shared_options(parser: argparse.ArgumentParser, **defaults: Any) -> None:
    """Add the named shared flags to ``parser`` (``key_space=512`` adds
    ``--key-space`` defaulting to 512; ``workload=("a", "b")`` makes the
    tuple the choices and its first entry the default)."""
    for name, default in defaults.items():
        spec = dict(_SHARED_OPTIONS[name])
        if isinstance(default, tuple):
            spec["choices"], default = default, default[0]
        if default is not None:
            spec["help"] += f" (default: {default})"
        parser.add_argument("--" + name.replace("_", "-"), default=default, **spec)


def read_json(path: str) -> Any:
    with open(path) as handle:
        return json.load(handle)


def write_json(path: str, payload: Any, default: Optional[Callable] = None) -> None:
    """Write a sorted, indented JSON artifact, creating its directory."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=default)
        handle.write("\n")


def append_step_summary(markdown: str) -> None:
    """Append to the workflow run page when running under GitHub Actions."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if path:
        with open(path, "a") as handle:
            handle.write(markdown)
            handle.write("\n")


def capture_health(capture: Dict[str, Any]) -> str:
    """One step-summary line: did the span ring or the op journal drop?"""
    oplog = capture["oplog"]
    journal = "off" if oplog is None else (
        f"{oplog['recorded']} recorded / {oplog['dropped']} dropped"
    )
    return (
        f"spans {capture['recorder']['recorded']} recorded / "
        f"{capture['recorder']['dropped']} dropped; op journal {journal}"
    )


def parse_int_list(text: str, flag: str) -> List[int]:
    """``"1,2,3"`` -> ``[1, 2, 3]``; anything else exits naming ``flag``."""
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(f"{flag} wants comma-separated integers, got {text!r}")
    if not values:
        raise SystemExit(f"{flag} must name at least one value")
    return values


# ---------------------------------------------------------------------------
# The matrix reporter (crash and cluster matrices)
# ---------------------------------------------------------------------------

#: Cell keys that hold live objects (flight recorder, metrics registry)
#: rather than JSON-serializable scenario facts.
_LIVE_CELL_KEYS = ("recorder", "metrics")


def strip_live(report: Dict[str, Any]) -> Dict[str, Any]:
    """The matrix report minus the live objects its cells carry."""
    cells = [
        {k: v for k, v in cell.items() if k not in _LIVE_CELL_KEYS}
        for cell in report["cells"]
    ]
    return {**report, "cells": cells}


def cell_layer(cell: Dict[str, Any]) -> str:
    """``device``, or ``shards<N>`` for a cell that ran on a cluster."""
    shards = cell.get("shards")
    return "device" if shards is None else f"shards{shards}"


def write_flight_dumps(cells: Sequence[Dict[str, Any]], flight_dir: str) -> List[str]:
    """Dump each failing cell's flight recorder as
    ``flight-<layer>-seed<N>[-<point>].jsonl``; the layer keeps a device
    and a cluster cell of one seed from overwriting each other."""
    os.makedirs(flight_dir, exist_ok=True)
    written = []
    for cell in cells:
        if cell["ok"] or cell.get("recorder") is None:
            continue
        name = f"flight-{cell_layer(cell)}-seed{cell['seed']}"
        if "point" in cell:
            name += "-" + (cell["point"] or "counting").replace(".", "_")
        path = os.path.join(flight_dir, name + ".jsonl")
        cell["recorder"].write_jsonl(path)
        written.append(path)
    return written


def md_cell(text: str, limit: int = 160) -> str:
    """Make arbitrary failure text safe inside a markdown table cell."""
    text = text.replace("|", "\\|").replace("\n", " ")
    if len(text) > limit:
        text = text[: limit - 1] + "…"
    return text


def step_summary(
    title: str,
    columns: Sequence[Tuple[str, str, Callable[[Dict[str, Any]], Any]]],
    cells: Sequence[Dict[str, Any]],
) -> str:
    """A matrix as a GitHub-flavoured markdown table, one row per cell.

    ``columns`` is ``[(header, alignment rule, cell -> value)]``; a final
    ``result`` column says ``ok`` or quotes the cell's first failure.
    """
    lines = [
        f"### {title}",
        "",
        "| " + " | ".join([header for header, _rule, _render in columns] + ["result"]) + " |",
        "|" + "|".join([rule for _header, rule, _render in columns] + ["---"]) + "|",
    ]
    for cell in cells:
        result = "ok" if cell["ok"] else "FAIL: " + md_cell(cell["failures"][0])
        values = [str(render(cell)) for _header, _rule, render in columns]
        lines.append("| " + " | ".join(values + [result]) + " |")
    lines.append("")
    return "\n".join(lines)


def emit(
    report: Dict[str, Any],
    args: argparse.Namespace,
    summary: str,
    name: str,
    hint: Callable[[Dict[str, Any]], str],
    passed: str,
) -> int:
    """Ship the report of matrix ``name``; returns the process exit code.

    Writes the JSON artifact to ``args.json_out`` (live objects
    stripped), dumps the failing cells' flight recorders under
    ``args.flight_dir``, appends ``summary`` to the step summary, and
    prints the verdict: ``passed``, or the command ``hint(cell)`` that
    re-runs the first failing cell.
    """
    if args.json_out:
        write_json(args.json_out, strip_live(report))
        print(f"matrix report -> {args.json_out}")
    if args.flight_dir and not report["ok"]:
        for path in write_flight_dumps(report["cells"], args.flight_dir):
            print(f"flight recorder -> {path}")
    append_step_summary(summary)
    failing = [cell for cell in report["cells"] if not cell["ok"]]
    if failing:
        print(
            f"\n{name.upper()} FAILED ({len(failing)} failing cell(s)); "
            f"reproduce one locally with e.g.\n  {hint(failing[0])}",
            file=sys.stderr,
        )
        return 1
    print(f"\n{name} passed: {passed}")
    return 0
