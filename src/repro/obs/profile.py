"""kamlprof: critical-path latency attribution over finished span trees.

The tracer (``repro.obs.trace``) records *what happened*; this module
answers *where the time went*.  It rebuilds each trace's span tree from
the flight recorder's flat event stream and attributes every request's
latency to a small registered component taxonomy — lock wait, NVRAM
back-pressure, log append, channel-bus arbitration, NAND pulses, GC
interference, cache/index CPU — with three invariants:

* **Exact accounting.**  Per request, the component times sum to the
  host-visible window exactly: a span's self-time is its window minus
  whatever its children claim, so nothing is counted twice and nothing
  is lost (the residue lands in the span's own component).
* **Concurrent siblings never double-count.**  Children claim time from
  the parent's window in deterministic ``(start_us, span_id)`` order;
  a later sibling only gets the parts of its interval that earlier
  siblings left unclaimed.
* **Background stays background.**  A two-phase Put detaches its root
  span and finishes phases 2/3 after the ack.  The host-visible window
  for a ``kaml.put`` is its ``put.phase1`` child; detached phase-2/3
  spans (and the NVRAM pin they hold) are clipped out of the request
  breakdown and reported under ``background`` instead.

Everything here is a pure function of the recorded events (simulated
time only), so a fixed seed produces a bit-identical breakdown — which
is what lets ``benchmarks/baseline.json`` pin component fractions and
the perf gate fail on a bottleneck *shift*.

The collapsed-stack export (``collapsed_stacks``) is the standard
``flamegraph.pl`` / speedscope input: one ``a;b;c <weight>`` line per
unique stack, weighted by integer nanoseconds of self-time.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.metrics import percentile
from repro.obs.trace import SpanEvent

#: The registered component taxonomy: every ``component=`` tag names one
#: of these.
COMPONENTS: Dict[str, str] = {
    "host_transfer": "host interconnect transfer (link + data copies)",
    "cache_cpu": "host-side cache/store CPU (probe, install, txn bookkeeping)",
    "firmware_cpu": "controller dispatch + firmware execution contexts",
    "index_cpu": "mapping-table probe/insert CPU",
    "lock_wait": "key/LBA lock acquisition wait",
    "nvram_wait": "NVRAM reservation back-pressure wait",
    "nvram_pin": "NVRAM pin held across Put phase 2/3",
    "log_append": "log staging + packed-page program wait",
    "bus_wait": "channel-bus arbitration wait",
    "bus_transfer": "channel-bus data transfer",
    "nand_wait": "chip engine arbitration wait",
    "nand_read": "NAND cell read (t_R)",
    "nand_program": "NAND page program (t_PROG)",
    "nand_erase": "NAND block erase (t_BERS)",
    "gc_wait": "garbage-collection interference",
    "background": "Put phase 2/3 work outside the host-visible window",
    "cluster": "serving-tier routing, queueing, 2PC, and rebalancing",
    "other": "residual / unattributed",
}

#: Every span name the stack is allowed to emit, mapped to the component
#: its *self-time* bills to.  A name missing here bills to ``other``, which
#: moves the pinned ``prof_breakdown_mini`` digest (tests/determinism), so
#: a new choke point cannot silently lump into ``other``.
SPAN_COMPONENTS: Dict[str, str] = {
    # Host-side store / cache layer.
    "store.get": "cache_cpu",
    "store.put": "cache_cpu",
    "store.txn.read": "cache_cpu",
    "store.txn.read_for_update": "cache_cpu",
    "store.txn.commit": "cache_cpu",
    "cache.read": "cache_cpu",
    "lock.acquire": "lock_wait",
    # KAML two-phase Put pipeline.
    "kaml.put": "firmware_cpu",
    "put.phase1": "firmware_cpu",
    "put.ack": "firmware_cpu",
    "put.transfer": "host_transfer",
    "put.nvram_reserve": "nvram_wait",
    "put.index_probe": "index_cpu",
    "put.phase2": "background",
    "put.install": "background",
    "put.nvram_pin": "nvram_pin",
    "log.append": "log_append",
    # KAML Get pipeline.
    "kaml.get": "firmware_cpu",
    "get.dispatch": "firmware_cpu",
    "get.index_probe": "index_cpu",
    "get.flash_read": "nand_read",
    "get.transfer": "host_transfer",
    # Baseline page FTL.
    "ftl.read": "firmware_cpu",
    "ftl.write": "firmware_cpu",
    "ftl.flash_read": "nand_read",
    "ftl.rmw_read": "nand_read",
    "ftl.lba_lock_wait": "lock_wait",
    "ftl.nvram_reserve": "nvram_wait",
    "ftl.gc": "gc_wait",
    # Garbage collection / recovery / device housekeeping.
    "kaml.gc": "gc_wait",
    "gc.clean_block": "gc_wait",
    "gc.pin_wait": "gc_wait",
    "gc.relocate": "gc_wait",
    "gc.relocate_block": "gc_wait",
    "gc.erase": "nand_erase",
    "kaml.recover": "firmware_cpu",
    "recover.scan": "firmware_cpu",
    "recover.batch_replayed": "firmware_cpu",
    "recover.prepare_preserved": "firmware_cpu",
    "kaml.flash_fault": "other",
    "kaml.flash_program": "nand_program",
    # Device-level choke points (channel bus, chip engine, firmware).
    "bus.wait": "bus_wait",
    "bus.transfer": "bus_transfer",
    "nand.wait": "nand_wait",
    "nand.read": "nand_read",
    "nand.program": "nand_program",
    "nand.erase": "nand_erase",
    "firmware.wait": "firmware_cpu",
    # kamltrace replay driver (one root per replay run, not per op).
    "replay.run": "other",
    # Cluster serving tier (repro.cluster): request roots, queue wait,
    # routing/shedding instants, the 2PC phases, and host maintenance.
    "cluster.get": "cluster",
    "cluster.put": "cluster",
    "cluster.delete": "cluster",
    "cluster.scan": "cluster",
    "cluster.route": "cluster",
    "cluster.shed": "cluster",
    "cluster.queue": "cluster",
    "cluster.2pc": "cluster",
    "cluster.2pc.prepare": "cluster",
    "cluster.2pc.commit": "cluster",
    "cluster.2pc.decision": "cluster",
    "cluster.rebalance": "cluster",
    "cluster.recover": "cluster",
}

#: The registered span-name vocabulary.
KNOWN_SPAN_NAMES = frozenset(SPAN_COMPONENTS)

#: Root span names that constitute host-visible requests; every other
#: root (GC, recovery, device flushes) is background/device activity.
REQUEST_ROOTS = frozenset({
    "store.get",
    "store.put",
    "store.txn.read",
    "store.txn.read_for_update",
    "store.txn.commit",
    "kaml.get",
    "kaml.put",
    "ftl.read",
    "ftl.write",
    "cluster.get",
    "cluster.put",
    "cluster.delete",
    "cluster.scan",
    "cluster.2pc",
})


def component_of(event: SpanEvent) -> str:
    """The component an event's self-time bills to.

    An explicit ``component=`` tag wins; otherwise the registered per-name mapping; unknown names
    land in ``other`` rather than raising, so a profile of a stream from
    a newer build still renders.
    """
    tagged = event.tags.get("component")
    if tagged in COMPONENTS:
        return tagged
    return SPAN_COMPONENTS.get(event.name, "other")


# ---------------------------------------------------------------------------
# Interval arithmetic (disjoint, sorted [start, end) lists)
# ---------------------------------------------------------------------------

Interval = Tuple[float, float]


def _intersect(intervals: List[Interval], start: float, end: float) -> List[Interval]:
    """``intervals`` clipped to ``[start, end)``."""
    if end <= start:
        return []
    out: List[Interval] = []
    for lo, hi in intervals:
        lo = max(lo, start)
        hi = min(hi, end)
        if hi > lo:
            out.append((lo, hi))
    return out


def _subtract(intervals: List[Interval], claims: List[Interval]) -> List[Interval]:
    """``intervals`` minus ``claims`` (both disjoint and sorted)."""
    if not claims:
        return intervals
    out: List[Interval] = []
    for lo, hi in intervals:
        cursor = lo
        for c_lo, c_hi in claims:
            if c_hi <= cursor or c_lo >= hi:
                continue
            if c_lo > cursor:
                out.append((cursor, c_lo))
            cursor = max(cursor, c_hi)
            if cursor >= hi:
                break
        if cursor < hi:
            out.append((cursor, hi))
    return out


def _length(intervals: List[Interval]) -> float:
    return sum(hi - lo for lo, hi in intervals)


# ---------------------------------------------------------------------------
# Span trees
# ---------------------------------------------------------------------------

class SpanNode:
    """One span plus its children, ordered by ``(start_us, span_id)``."""

    __slots__ = ("event", "children")

    def __init__(self, event: SpanEvent):
        self.event = event
        self.children: List["SpanNode"] = []


def build_trace_trees(events: Iterable[SpanEvent]) -> Dict[int, List[SpanNode]]:
    """Group events by trace and rebuild parent/child trees.

    Returns ``{trace_id: [root nodes]}``.  A span whose parent fell out
    of the flight-recorder ring is treated as a root of its trace — a
    truncated profile is still a profile.
    """
    nodes: Dict[int, SpanNode] = {}
    order: List[SpanNode] = []
    for event in events:
        node = SpanNode(event)
        nodes[event.span_id] = node
        order.append(node)
    roots: Dict[int, List[SpanNode]] = {}
    for node in order:
        parent = nodes.get(node.event.parent_id) if node.event.parent_id else None
        if parent is not None and parent.event.trace_id == node.event.trace_id:
            parent.children.append(node)
        else:
            roots.setdefault(node.event.trace_id, []).append(node)
    for node in order:
        node.children.sort(key=lambda n: (n.event.start_us, n.event.span_id))
    for siblings in roots.values():
        siblings.sort(key=lambda n: (n.event.start_us, n.event.span_id))
    return roots


def _attribute(node: SpanNode, windows: List[Interval],
               acc: Dict[str, float]) -> None:
    """Attribute ``windows`` to components, children first.

    Children claim their share of the window in deterministic order;
    whatever they leave unclaimed is the node's self-time and bills to
    the node's own component.  Passing the *remaining* window down keeps
    concurrent siblings from double-counting the same microsecond.
    """
    remaining = windows
    for child in node.children:
        ev = child.event
        end = ev.end_us if ev.end_us is not None else ev.start_us
        claimed = _intersect(remaining, ev.start_us, end)
        if claimed:
            remaining = _subtract(remaining, claimed)
            _attribute(child, claimed, acc)
    self_us = _length(remaining)
    if self_us > 0.0:
        key = component_of(node.event)
        acc[key] = acc.get(key, 0.0) + self_us


def _request_anchor(root: SpanNode) -> SpanNode:
    """The node whose window is the host-visible latency.

    ``kaml.put`` detaches its root span and lets phases 2/3 finish in
    the background, so its host-visible window is the ``put.phase1``
    child; every other request's window is the root span itself.
    """
    if root.event.name == "kaml.put":
        for child in root.children:
            if child.event.name == "put.phase1":
                return child
    return root


def _node_interval(node: SpanNode) -> Interval:
    end = node.event.end_us if node.event.end_us is not None else node.event.start_us
    return (node.event.start_us, end)


def _trace_extent(root: SpanNode) -> Interval:
    """``[min start, max end)`` over the whole subtree (detached spans
    can outlive their parent, so the root interval alone is not enough)."""
    lo, hi = _node_interval(root)
    stack = [root]
    while stack:
        node = stack.pop()
        n_lo, n_hi = _node_interval(node)
        lo = min(lo, n_lo)
        hi = max(hi, n_hi)
        stack.extend(node.children)
    return (lo, hi)


# ---------------------------------------------------------------------------
# The breakdown report
# ---------------------------------------------------------------------------

def analyze(events: Iterable[SpanEvent], top_n: int = 5) -> Dict[str, Any]:
    """The full kamlprof report as a JSON-ready dict.

    ``requests``: per root-op, per namespace — count, latency stats, and
    per-component ``{us, fraction}`` whose fractions sum to 1.0 (up to
    float rounding) by construction.  ``background``: non-request traces
    (GC, recovery, device flushes) aggregated the same way over their
    full extent.  ``exemplars``: the ``top_n`` slowest requests with
    their individual breakdowns.
    """
    events = list(events)
    roots_by_trace = build_trace_trees(events)

    requests: Dict[str, Dict[str, Dict[str, Any]]] = {}
    latencies: Dict[Tuple[str, str], List[float]] = {}
    background: Dict[str, Dict[str, Any]] = {}
    exemplars: List[Dict[str, Any]] = []
    n_requests = 0

    for trace_id in sorted(roots_by_trace):
        for root in roots_by_trace[trace_id]:
            name = root.event.name
            if name in REQUEST_ROOTS:
                n_requests += 1
                anchor = _request_anchor(root)
                window = [_node_interval(anchor)]
                acc: Dict[str, float] = {}
                _attribute(anchor, window, acc)
                latency_us = _length(window)
                namespace = str(root.event.tags.get("namespace", "-"))
                bucket = requests.setdefault(name, {}).setdefault(
                    namespace, {"count": 0, "total_us": 0.0, "components": {}}
                )
                bucket["count"] += 1
                bucket["total_us"] += latency_us
                for comp, us in acc.items():
                    bucket["components"][comp] = (
                        bucket["components"].get(comp, 0.0) + us
                    )
                latencies.setdefault((name, namespace), []).append(latency_us)
                exemplars.append({
                    "op": name,
                    "namespace": namespace,
                    "trace_id": trace_id,
                    "start_us": anchor.event.start_us,
                    "latency_us": latency_us,
                    "components": {
                        comp: acc[comp] for comp in sorted(acc)
                    },
                })
            else:
                window = [_trace_extent(root)]
                acc = {}
                _attribute(root, window, acc)
                bucket = background.setdefault(
                    name, {"count": 0, "total_us": 0.0, "components": {}}
                )
                bucket["count"] += 1
                bucket["total_us"] += _length(window)
                for comp, us in acc.items():
                    bucket["components"][comp] = (
                        bucket["components"].get(comp, 0.0) + us
                    )

    # Finalise: fractions + latency percentiles, deterministically keyed.
    for name, by_namespace in requests.items():
        for namespace, bucket in by_namespace.items():
            series = sorted(latencies[(name, namespace)])
            total = bucket["total_us"]
            bucket["mean_us"] = total / bucket["count"] if bucket["count"] else 0.0
            bucket["p50_us"] = percentile(series, 0.50)
            bucket["p99_us"] = percentile(series, 0.99)
            bucket["max_us"] = series[-1] if series else 0.0
            bucket["components"] = {
                comp: {
                    "us": us,
                    "fraction": (us / total) if total > 0.0 else 0.0,
                }
                for comp, us in sorted(bucket["components"].items())
            }
    for name, bucket in background.items():
        total = bucket["total_us"]
        bucket["components"] = {
            comp: {
                "us": us,
                "fraction": (us / total) if total > 0.0 else 0.0,
            }
            for comp, us in sorted(bucket["components"].items())
        }

    exemplars.sort(key=lambda row: (-row["latency_us"], row["trace_id"]))
    return {
        "requests": requests,
        "background": background,
        "exemplars": exemplars[:top_n],
        "totals": {
            "requests": n_requests,
            "traces": len(roots_by_trace),
            "spans": len(events),
        },
    }


# ---------------------------------------------------------------------------
# Collapsed-stack (flamegraph.pl / speedscope) export
# ---------------------------------------------------------------------------

def collapsed_stacks(events: Iterable[SpanEvent]) -> Dict[str, int]:
    """Self-time per unique root->span stack, in integer nanoseconds.

    Unlike the request breakdown this covers *all* traces over their
    full extent (background included): a flamegraph answers "where did
    the simulation's time go", the breakdown answers "what did the host
    wait on".  Concurrent work on different traces legitimately sums
    past wall time, exactly like a multi-thread collapse.
    """
    stacks: Dict[str, int] = {}
    roots_by_trace = build_trace_trees(events)

    def visit(node: SpanNode, prefix: str) -> None:
        stack = f"{prefix};{node.event.name}" if prefix else node.event.name
        own = [_node_interval(node)]
        for child in node.children:
            ev = child.event
            end = ev.end_us if ev.end_us is not None else ev.start_us
            own = _subtract(own, _intersect(own, ev.start_us, end))
        weight = int(round(_length(own) * 1000.0))
        if weight > 0:
            stacks[stack] = stacks.get(stack, 0) + weight
        for child in node.children:
            visit(child, stack)

    for trace_id in sorted(roots_by_trace):
        for root in roots_by_trace[trace_id]:
            visit(root, "")
    return stacks


def collapsed_lines(stacks: Dict[str, int]) -> List[str]:
    return [f"{stack} {weight}" for stack, weight in sorted(stacks.items())]


def write_collapsed(path: str, stacks: Dict[str, int]) -> None:
    with open(path, "w") as handle:
        for line in collapsed_lines(stacks):
            handle.write(line)
            handle.write("\n")


# ---------------------------------------------------------------------------
# Rendering helpers (plain rows for the harness, markdown for CI)
# ---------------------------------------------------------------------------

def breakdown_rows(report: Dict[str, Any],
                   min_fraction: float = 0.0) -> List[List[Any]]:
    """``[op, namespace, component, us, fraction]`` rows, sorted by
    (op, namespace, -fraction) — ready for ``format_table``."""
    rows: List[List[Any]] = []
    for op, by_namespace in sorted(report.get("requests", {}).items()):
        for namespace, bucket in sorted(by_namespace.items()):
            components = sorted(
                bucket.get("components", {}).items(),
                key=lambda item: (-item[1]["fraction"], item[0]),
            )
            for comp, row in components:
                if row["fraction"] < min_fraction:
                    continue
                rows.append([
                    op, namespace, comp,
                    round(row["us"], 3),
                    f"{row['fraction']:.1%}",
                ])
    return rows


def markdown_breakdown(report: Dict[str, Any],
                       title: str = "kamlprof latency breakdown") -> str:
    """The per-namespace breakdown as a GitHub-flavoured markdown table
    (written to ``$GITHUB_STEP_SUMMARY`` by the CI bench jobs)."""
    lines = [
        f"### {title}",
        "",
        "| op | ns | count | mean us | p50 us | p99 us | top components |",
        "|---|---|---:|---:|---:|---:|---|",
    ]
    for op, by_namespace in sorted(report.get("requests", {}).items()):
        for namespace, bucket in sorted(by_namespace.items()):
            components = sorted(
                bucket.get("components", {}).items(),
                key=lambda item: (-item[1]["fraction"], item[0]),
            )
            top = ", ".join(
                f"{comp} {row['fraction']:.0%}"
                for comp, row in components[:4]
                if row["fraction"] >= 0.005
            )
            lines.append(
                f"| {op} | {namespace} | {bucket['count']} "
                f"| {bucket['mean_us']:.2f} | {bucket['p50_us']:.2f} "
                f"| {bucket['p99_us']:.2f} | {top} |"
            )
    lines.append("")
    return "\n".join(lines)
