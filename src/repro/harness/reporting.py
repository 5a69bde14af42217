"""Plain-text tables and JSON reports.

``format_table``/``format_kv`` render the paper-style tables; ``to_json``
serialises an experiment result dict (title/headers/rows/metrics, plus an
optional embedded metrics-registry export) for the CI artifact step.
The rest is what the harness commands share: ``shared_options``
declares the common flags once, and ``read_json``/``write_json``/
``append_step_summary`` are the artifact plumbing.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import Any, Callable, Dict, Optional, Sequence

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
    "key_space": {"type": int, "help": "key range (mixed workload)"},
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
