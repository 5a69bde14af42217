"""One pass of one workload, run inside a fresh child interpreter.

A pass builds the rig, loads it, warms it up, and then — depending on
its mode — stops (``setup``), measures the window with all tracing off
(``measure``), measures it under ``cProfile`` (``profile``), or measures
it with the program's tracers armed (``spans``).  The parent
(:mod:`kamlbench.cli`) stitches passes into one report.

Timing rules: set-up is child start to window start; the window is cut
into equal-op segments, each bracketed by calibration spins that are
never inside a timed interval; draining, the counter snapshots and the
read-back check are outside all host timing.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import random
import resource
import statistics
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from kamlbench.spin import Spin, normalised_seconds, normalised_total, relative_spread

MODES = ("setup", "measure", "profile", "spans")

#: Equal-op segments per full window (each ~0.5 s on the reference box).
SEGMENTS = 20
#: The traced passes replay this leading share of the op stream.
TRACED_FRACTION = 0.25
#: Ring size for the armed flight recorders: large enough that no span
#: of a traced window is evicted (a drop fails the pass).
RECORDER_CAPACITY = 8_000_000


class _Window:
    """Closed-loop issue of ``ops[first:last]``: each of the workload's
    clients takes the next op when its previous one returns."""

    def __init__(self, workload: Any, ops: list, first: int, last: int, segments: int,
                 record_spans: bool = False):
        self.workload = workload
        self.ops = ops
        self.cursor = first
        self.last = last
        self.done = 0
        self.failed = 0
        self.latencies: List[float] = []
        self.errors: List[str] = []
        #: ``(op index, segment, sim start, sim end)`` per op when asked for.
        self.spans: Optional[List[Tuple[int, int, float, float]]] = [] if record_spans else None
        count = last - first
        edges = [round(count * k / segments) for k in range(segments + 1)]
        #: Ops in each segment; segment *k* ends when ``sum(sizes[:k + 1])`` ops are done.
        self.sizes = [b - a for a, b in zip(edges, edges[1:])]
        self._marks = edges[1:-1]
        env = workload.env
        self._boundaries = [env.event() for _ in self._marks]
        self._segment = 0
        finished = env.all_of([env.process(self._client()) for _ in range(workload.clients)])
        #: The event that ends each segment, in order.
        self.segment_ends = self._boundaries + [finished]

    def _client(self) -> Any:
        workload, ops, env = self.workload, self.ops, self.workload.env
        issue, latencies, spans = workload.issue, self.latencies, self.spans
        marks, boundaries = self._marks, self._boundaries
        while self.cursor < self.last:
            index = self.cursor
            self.cursor = index + 1
            started = env.now
            try:
                yield from issue(index, ops[index])
            except Exception as exc:  # a shed or any raised error is a failed op
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"op {index}: {type(exc).__name__}: {exc}")
            else:
                latencies.append(env.now - started)
                if spans is not None:
                    spans.append((index, self._segment, started, env.now))
            self.done += 1
            if self._segment < len(marks) and self.done == marks[self._segment]:
                boundaries[self._segment].succeed()
                self._segment += 1


def _tail_mean(ordered: List[float], share: float) -> float:
    """Mean of the slowest ``share`` of the (sorted) samples."""
    tail = ordered[-max(1, round(len(ordered) * share)):]
    return sum(tail) / len(tail)


def _read_back(workload: Any, keys: List[int]) -> int:
    """Read ``keys`` through the workload's API; count unacceptable values."""
    env = workload.env
    state = {"cursor": 0, "bad": 0}

    def reader() -> Any:
        while state["cursor"] < len(keys):
            key = keys[state["cursor"]]
            state["cursor"] += 1
            value = yield from workload.read(key)
            if not workload.shadow.accepts(key, value):
                state["bad"] += 1

    env.run_until(env.all_of([env.process(reader()) for _ in range(workload.clients)]))
    return state["bad"]


def _write_spans(trace_dir: str, workload: Any, ops: list, window: _Window, seed: int) -> str:
    """Client-side spans, one JSON array per line after a header object."""
    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir, f"{workload.name}.jsonl")
    with open(path, "w") as handle:
        header = {
            "workload": workload.name, "seed": seed, "clients": workload.clients,
            "clock": "simulated us",
            "fields": ["op", "kind", "segment", "start_us", "end_us"],
        }
        handle.write(json.dumps(header) + "\n")
        for index, segment, start_us, end_us in window.spans or ():
            row = [index, workload.kind(ops[index]), segment, start_us, end_us]
            handle.write(json.dumps(row) + "\n")
    return path


def run_pass(
    workload_name: str,
    seed: int,
    seconds: float,
    mode: str,
    fraction: float,
    started_at: float,
    trace_dir: Optional[str],
) -> Dict[str, Any]:
    """Run one pass and return its JSON-ready document.

    ``started_at`` is the parent's ``perf_counter()`` reading just before
    it spawned this interpreter (the clock is system-wide monotonic).
    """
    spin = Spin()
    spin_first = spin.run()

    # Imported here: loading the program under test is part of set-up.
    from repro.analysis.stats import percentile
    from repro.obs.trace import FlightRecorder

    from kamlbench import layers
    from kamlbench.workloads import NOMINAL_SECONDS, WORKLOADS

    workload = WORKLOADS[workload_name]()
    window_ops = max(SEGMENTS, round(workload.ops_per_second * seconds))
    warmup_ops = max(workload.clients, round(workload.warmup_ops * seconds / NOMINAL_SECONDS))
    ops = workload.make_ops(random.Random(seed), warmup_ops + window_ops)
    for tracer in workload.tracers():
        tracer.enabled = False
    workload.drive(workload.load())
    workload.settle()
    warmup = _Window(workload, ops, 0, warmup_ops, segments=1)
    workload.env.run_until(warmup.segment_ends[-1])
    workload.settle()
    gc.collect()
    ready_at = perf_counter()
    spins = [spin.run()]
    setup_raw_s = ready_at - started_at - spin_first
    doc: Dict[str, Any] = {
        "workload": workload_name,
        "mode": mode,
        "seed": seed,
        "clients": workload.clients,
        "setup_s": normalised_seconds(setup_raw_s, spin_first, spins[0]),
        "setup_raw_s": setup_raw_s,
        "attempted": warmup.done,
        "failed": warmup.failed,
        "errors": warmup.errors,
    }
    if mode == "setup":
        return doc

    # ---- the window ----------------------------------------------------
    segments = max(1, round(SEGMENTS * fraction))
    measured_ops = round(window_ops * fraction)
    profiler = cProfile.Profile() if mode == "profile" else None
    if mode == "spans":
        for tracer in workload.tracers():
            tracer.recorder = FlightRecorder(capacity=RECORDER_CAPACITY)
            tracer.enabled = True
    workload.user_bytes = 0
    layers.reset_high_water(workload)
    before = layers.snapshot(workload)
    window = _Window(
        workload, ops, warmup_ops, warmup_ops + measured_ops, segments,
        record_spans=mode == "spans",
    )
    walls: List[float] = []
    halfway = (before["flash_programs"], 0)
    for number, segment_end in enumerate(window.segment_ends):
        if profiler is not None:
            profiler.enable()
        began = perf_counter()
        workload.env.run_until(segment_end)
        walls.append(perf_counter() - began)
        if profiler is not None:
            profiler.disable()
        if number + 1 == segments // 2:
            halfway = (
                sum(device.array.total_programs() for device in workload.devices),
                workload.user_bytes,
            )
        spins.append(spin.run())
    sim_end_us = workload.env.now
    segment_events = workload.env.events_processed - before["events"]
    workload.settle()
    after = layers.snapshot(workload)
    for tracer in workload.tracers():
        tracer.enabled = False

    # ---- metrics -------------------------------------------------------
    completed = window.done - window.failed
    user_bytes = workload.user_bytes
    page_size = workload.devices[0].geometry.page_size
    programs = after["flash_programs"] - before["flash_programs"]
    host_s = normalised_total(walls, spins)
    rates = [
        size / normalised_seconds(wall, spins[i], spins[i + 1])
        for i, (size, wall) in enumerate(zip(window.sizes, walls))
    ]
    leading = max(1, round(SEGMENTS * TRACED_FRACTION))
    ordered = sorted(window.latencies)
    device_blocks = sum(
        device.geometry.total_chips * device.geometry.blocks_per_chip
        for device in workload.devices
    )
    halves = [
        layers.ratio((halfway[0] - before["flash_programs"]) * page_size, halfway[1]),
        layers.ratio((after["flash_programs"] - halfway[0]) * page_size, user_bytes - halfway[1]),
    ]
    doc.update({
        "ops": completed,
        "samples": len(ordered),
        "window_raw_s": sum(walls),
        "e2e": {
            "host_ops_per_s": completed / host_s,
            "host_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "sim_events_per_op": (after["events"] - before["events"]) / completed,
            "sim_ops_per_s": completed * 1e6 / (sim_end_us - before["sim_us"]),
            "sim_mean_us": sum(ordered) / len(ordered),
            "sim_tail_mean_us": _tail_mean(ordered, 0.01),
            "sim_p999_us": percentile(ordered, 0.999),
            "write_amp": programs * page_size / user_bytes,
        },
        "layers": layers.counter_metrics(workload, before, after, completed, user_bytes),
        #: Rate over the leading segments the traced passes replay: the
        #: like-for-like base of the tracing overheads.
        "leading_host_ops_per_s": sum(window.sizes[:leading])
        / normalised_total(walls[:leading], spins[:leading + 1]),
        "guard_inputs": {
            "sim_p50_us": percentile(ordered, 0.50),
            "gc_erased_blocks_per_device_block":
                (after["gc_erased_blocks"] - before["gc_erased_blocks"]) / device_blocks,
            "write_amp_halves_gap": abs(halves[0] - halves[1]) / max(halves) if max(halves) else 0.0,
        },
        "write_amp_halves": halves,
        "segments": {"ops": window.sizes, "wall_s": walls, "spin_s": spins},
    })
    doc["layers"].update({
        "sim.host_us_per_event": host_s * 1e6 / segment_events,
        "bench.raw_ops_per_s": completed / sum(walls),
        "bench.raw_setup_s": setup_raw_s,
        "bench.spin_ms_median": statistics.median(spins) * 1000.0,
        "bench.spin_ms_spread": relative_spread(spins),
        "bench.segment_spread": relative_spread(rates),
    })
    doc["regime"] = workload.regime(doc)
    if profiler is not None:
        doc["profile"] = layers.fold_profile(profiler, completed)
    if mode == "spans":
        doc["spans"] = layers.span_metrics(workload)
        if trace_dir:
            doc["trace_file"] = _write_spans(trace_dir, workload, ops, window, seed)

    # ---- output check (outside all timing) --------------------------------
    # The measuring pass reads back every key it touched; the traced
    # passes, which only exist to attribute cost, the keys they wrote.
    keys = sorted(workload.touched if mode == "measure" else workload.shadow.written)
    mismatches = workload.mismatches + _read_back(workload, keys)
    doc["attempted"] += window.done
    doc["failed"] += window.failed + mismatches
    doc["errors"] += window.errors
    doc["read_back_keys"] = len(keys)
    doc["mismatches"] = mismatches
    return doc
