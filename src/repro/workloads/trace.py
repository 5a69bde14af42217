"""Trace-driven workloads.

The paper's evaluation uses synthetic benchmarks, but a KV-SSD library is
usually validated against production traces — which are not available
here (see DESIGN.md).  This module provides the next best thing: a
compact, replayable trace format plus synthetic trace generators with
controllable skew, so downstream users can both capture and replay
key-value workloads against the simulated device.

Format: one operation per line, whitespace-separated::

    get <key>
    put <key> <size>
    delete <key>

Lines starting with ``#`` are comments.
"""

from __future__ import annotations

import random
from typing import List, NamedTuple, Optional

from repro.errors import ReproError
from repro.kaml import KamlSsd, PutItem
from repro.sim import Environment
from repro.workloads.keydist import UniformChooser, ZipfianChooser
from repro.workloads.micro import HOST_SOFTWARE_US, MicroResult


class TraceOp(NamedTuple):
    op: str            # "get" | "put" | "delete"
    key: int
    size: int = 0      # put only


class TraceError(ReproError):
    """Malformed trace text or unsupported operation."""


class Trace:
    """An ordered list of key-value operations."""

    def __init__(self, ops: Optional[List[TraceOp]] = None):
        self.ops: List[TraceOp] = list(ops or [])

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    def append(self, op: TraceOp) -> None:
        self.ops.append(op)

    # -- serialization -----------------------------------------------------

    def dumps(self) -> str:
        lines = []
        for op in self.ops:
            if op.op == "put":
                lines.append(f"put {op.key} {op.size}")
            else:
                lines.append(f"{op.op} {op.key}")
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def loads(cls, text: str) -> "Trace":
        ops = []
        for line_number, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            kind = fields[0]
            try:
                if kind == "put":
                    if len(fields) != 3:
                        raise ValueError("put needs key and size")
                    ops.append(TraceOp("put", int(fields[1]), int(fields[2])))
                elif kind in ("get", "delete"):
                    if len(fields) != 2:
                        raise ValueError(f"{kind} needs a key")
                    ops.append(TraceOp(kind, int(fields[1])))
                else:
                    raise ValueError(f"unknown op {kind!r}")
            except ValueError as exc:
                raise TraceError(f"line {line_number}: {exc}") from None
        return cls(ops)

    # -- statistics -----------------------------------------------------------

    def op_counts(self) -> dict:
        counts = {"get": 0, "put": 0, "delete": 0}
        for op in self.ops:
            counts[op.op] += 1
        return counts

    def working_set(self) -> int:
        return len({op.key for op in self.ops})


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------

def synthesize(
    operations: int,
    key_space: int,
    read_fraction: float = 0.5,
    value_size: int = 1024,
    distribution: str = "zipfian",
    delete_fraction: float = 0.0,
    seed: int = 1,
) -> Trace:
    """A synthetic trace with the given mix and key skew."""
    if not 0.0 <= read_fraction <= 1.0:
        raise TraceError("read_fraction must be in [0, 1]")
    if not 0.0 <= delete_fraction <= 1.0 - read_fraction:
        raise TraceError("delete_fraction must fit in the non-read share")
    rng = random.Random(seed)
    if distribution == "uniform":
        chooser = UniformChooser(key_space, seed=seed)
    elif distribution == "zipfian":
        chooser = ZipfianChooser(key_space, seed=seed)
    else:
        raise TraceError(f"unknown distribution {distribution!r}")
    trace = Trace()
    for _ in range(operations):
        key = chooser.next_key()
        roll = rng.random()
        if roll < read_fraction:
            trace.append(TraceOp("get", key))
        elif roll < read_fraction + delete_fraction:
            trace.append(TraceOp("delete", key))
        else:
            trace.append(TraceOp("put", key, value_size))
    return trace


def sequential_fill(keys: int, value_size: int = 1024) -> Trace:
    """Populate keys 0..keys-1 in order (device preconditioning)."""
    return Trace([TraceOp("put", key, value_size) for key in range(keys)])


def trace_from_journal(rows, layer: str = "ssd") -> Trace:
    """Flatten a kamltrace op journal into the compact text-trace format.

    Scans are dropped and namespaces collapse (this format predates
    both); use :mod:`repro.workloads.replay` when batch atomicity,
    namespaces, or recorded timing matter.
    """
    trace = Trace()
    for row in rows:
        if row.get("layer", "ssd") != layer:
            continue
        op = row.get("op")
        if op in ("get", "delete"):
            trace.append(TraceOp(op, int(row["key_hash"])))
        elif op == "put":
            trace.append(
                TraceOp("put", int(row["key_hash"]), int(row.get("size") or 0))
            )
    return trace


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

def replay(
    env: Environment,
    ssd: KamlSsd,
    namespace_id: int,
    trace: Trace,
    threads: int = 1,
) -> MicroResult:
    """Replay a trace against a KAML namespace.

    With multiple threads the trace is dealt round-robin (preserving
    per-thread order, as trace replayers conventionally do).
    """
    if threads < 1:
        raise TraceError("threads must be >= 1")
    result = MicroResult()
    lanes: List[List[TraceOp]] = [[] for _ in range(threads)]
    for index, op in enumerate(trace):
        lanes[index % threads].append(op)
    start = env.now

    def worker(lane: List[TraceOp]):
        for op in lane:
            op_start = env.now
            env.try_advance(HOST_SOFTWARE_US) or (yield env.timeout(HOST_SOFTWARE_US))
            if op.op == "get":
                yield from ssd.get(namespace_id, op.key)
                result.bytes_moved += op.size
            elif op.op == "put":
                yield from ssd.put([PutItem(namespace_id, op.key,
                                            ("trace", op.key), op.size)])
                result.bytes_moved += op.size
            else:
                yield from ssd.delete(namespace_id, op.key)
            result.ops += 1
            result.latencies_us.append(env.now - op_start)

    procs = [env.process(worker(lane)) for lane in lanes if lane]
    done = env.all_of(procs)
    finish = []
    done.add_callback(lambda _e: finish.append(env.now))
    env.run_until(done)
    result.elapsed_us = finish[0] - start
    return result
