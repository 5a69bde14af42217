"""Lock-discipline lints: KL-LCK001 (acquire/release pairing) and
KL-LCK002 (static lock-order graph acyclicity).

Sites are identified by receiver text, canonicalised to
``ClassName.attr`` for ``self.*`` receivers.  Two layers of analysis:

* per-function: every latch-style ``X.acquire(...)`` must see a
  matching ``X.release*()`` in the same function (KL-LCK001), and
  acquires nested inside a held lock add ``held -> wanted`` edges;
* full call-depth expansion: calling a function while holding a lock
  adds edges from the held site to every acquire in the callee's whole
  (non-spawn) transitive call tree, resolved through the project call
  graph; the legacy name-based one-level expansion is kept for callees
  the resolver cannot type.

Cycles in the resulting graph are SS2PL deadlock candidates
(KL-LCK002).  The runtime sanitizer records the orders a real run
exercises and cross-checks them against this graph.

Exemptions: classes that *implement* locks (``SimLock``, ``Resource``,
``LockTable``, ``LockManager``) and two-phase-locking managers, whose
releases happen at commit/abort by design (receivers aliasing
``LockManager``, e.g. ``self.locks``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis_tools.core import (
    LintModule,
    TryThenWait,
    Violation,
    iter_functions,
    method_calls,
    receiver_text,
    register_pass,
)
from repro.analysis_tools.graph import Project

#: Classes whose own methods are the lock implementation, not clients.
IMPLEMENTATION_CLASSES = {
    "SimLock", "Resource", "Gate", "LockTable", "LockManager",
    "LockOrderRecorder",
}

#: Receiver tails that denote a two-phase-locking manager: acquire here,
#: release at commit/abort in another function — exempt from KL-LCK001
#: pairing but still part of the KL-LCK002 order graph.
TWO_PHASE_RECEIVERS = {"locks", "lock_manager", "lockmanager"}

_RELEASE_METHODS = {"release", "release_all", "release_one"}


@dataclass
class _FunctionLocks:
    """Lock behaviour of one function, for graph assembly."""

    module: LintModule
    class_name: Optional[str]
    func: ast.FunctionDef
    #: sites acquired anywhere in the function (site, line)
    acquires: List[Tuple[str, int]] = field(default_factory=list)
    #: edges observed inside the function (held -> wanted, line)
    edges: List[Tuple[str, str, int]] = field(default_factory=list)
    #: local calls made while holding a site (held, callee name, line)
    held_calls: List[Tuple[str, str, int]] = field(default_factory=list)
    #: sites acquired but never released in this function
    unreleased: List[Tuple[str, int]] = field(default_factory=list)


def _site(receiver: Optional[str], class_name: Optional[str]) -> Optional[str]:
    if receiver is None:
        return None
    if receiver == "self" or receiver.startswith("self."):
        owner = class_name or "<module>"
        attr = receiver[len("self."):] if receiver.startswith("self.") else ""
        return f"{owner}.{attr}" if attr else owner
    return receiver


def _analyze_function(
    module: LintModule, class_name: Optional[str], func: ast.FunctionDef
) -> _FunctionLocks:
    info = _FunctionLocks(module, class_name, func)
    held: List[Tuple[str, int]] = []
    released: Set[str] = set()
    idiom = TryThenWait("acquire")
    for call in method_calls(func):
        method = call.func.attr
        receiver = receiver_text(call.func.value)
        site = _site(receiver, class_name)
        acquires = idiom.acquires(method, site) if site is not None else None
        if acquires is False:
            continue  # the contended wait of the try_acquire just counted
        if acquires:
            for held_site, _line in held:
                if held_site != site:
                    info.edges.append((held_site, site, call.lineno))
            info.acquires.append((site, call.lineno))
            held.append((site, call.lineno))
        elif method in _RELEASE_METHODS and site is not None:
            idiom.released(site)
            released.add(site)
            for position in range(len(held) - 1, -1, -1):
                if held[position][0] == site:
                    del held[position]
                    break
        elif held:
            # A call made while holding a lock: remember it so the graph
            # pass can expand locally-defined callees one level deep.
            for held_site, _line in held:
                info.held_calls.append((held_site, method, call.lineno))
    for site, line in held:
        if site not in released:
            info.unreleased.append((site, line))
    return info


def _is_two_phase(site: str) -> bool:
    return site.split(".")[-1].lower() in TWO_PHASE_RECEIVERS


def _collect(modules: Sequence[LintModule]) -> List[_FunctionLocks]:
    return [
        _analyze_function(module, class_name, func)
        for module in modules
        for class_name, func in iter_functions(module.tree)
    ]


@register_pass
def lck001_pairing(project: Project) -> List[Violation]:
    """KL-LCK001: latch-style locks release in the acquiring function."""
    findings = []
    for info in _collect(project.modules):
        if info.class_name in IMPLEMENTATION_CLASSES:
            continue
        for site, line in info.unreleased:
            if _is_two_phase(site):
                continue
            findings.append(
                Violation(
                    "KL-LCK001",
                    str(info.module.path),
                    line,
                    info.func.col_offset,
                    f"`{info.func.name}` acquires {site} but never "
                    "releases it in any path through the function",
                )
            )
    return findings


def build_lock_graph(
    modules: Sequence[LintModule],
    project: Optional[Project] = None,
) -> Dict[Tuple[str, str], List[Tuple[str, int]]]:
    """The static lock-order graph: edge -> [(path, line), ...].

    Two expansion layers feed the graph beyond each function's own
    nested acquires:

    * **Full call depth** (graph-resolved): a callsite executed while a
      lock is held orders that lock before every acquire anywhere in
      the callee's transitive non-spawn call tree.  Spawn edges are
      excluded — a spawned process does not run under the spawner's
      latch (it is scheduled later, after the release).
    * **Legacy name-based, one level**: callee names the resolver cannot
      type still expand against every same-named function, so renamed
      receivers degrade to the old behaviour instead of vanishing.
    """
    if project is None:
        project = Project(modules)
    infos = _collect(modules)
    by_name: Dict[str, List[_FunctionLocks]] = {}
    for info in infos:
        by_name.setdefault(info.func.name, []).append(info)
    edges: Dict[Tuple[str, str], List[Tuple[str, int]]] = {}

    def add(source: str, target: str, path: str, line: int) -> None:
        if source != target:
            edges.setdefault((source, target), []).append((path, line))

    for info in infos:
        path = str(info.module.path)
        for source, target, line in info.edges:
            add(source, target, path, line)
        # One level of call expansion: F holds `held` and calls G; every
        # site G itself acquires is ordered after `held`.
        for held_site, callee, line in info.held_calls:
            for callee_info in by_name.get(callee, ()):  # noqa: B007
                for target, _acq_line in callee_info.acquires:
                    add(held_site, target, path, line)

    # Full-depth expansion over the resolved call graph.
    for uid in sorted(project.functions):
        caller = project.functions[uid]
        timeline = project.lock_timeline(caller)
        if not any(kind == "acq" for _pos, kind, _site in timeline.events):
            continue
        for site in project.call_edges.get(uid, ()):  # noqa: B007
            if site.spawn:
                continue
            held = timeline.held_at(site.line, site.col)
            if not held:
                continue
            for reached_uid in sorted(project.reachable(site.callee)):
                reached = project.functions[reached_uid]
                reached_timeline = project.lock_timeline(reached)
                for _pos, kind, acq_site in reached_timeline.events:
                    if kind != "acq":
                        continue
                    for held_site in sorted(held):
                        add(held_site, acq_site, str(caller.path), site.line)
    return edges


def find_cycles(
    edges: Dict[Tuple[str, str], List[Tuple[str, int]]]
) -> List[List[str]]:
    """Elementary cycles (as site paths), deterministically ordered."""
    adjacency: Dict[str, Set[str]] = {}
    for source, target in edges:
        adjacency.setdefault(source, set()).add(target)
    cycles: List[List[str]] = []
    seen_keys: Set[Tuple[str, ...]] = set()
    for start in sorted(adjacency):
        stack: List[Tuple[str, List[str]]] = [(start, [start])]
        while stack:
            node, trail = stack.pop()
            for succ in sorted(adjacency.get(node, ()), reverse=True):
                if succ == start:
                    cycle = trail + [start]
                    # Canonical key: rotation-invariant smallest form.
                    body = tuple(sorted(cycle[:-1]))
                    if body not in seen_keys:
                        seen_keys.add(body)
                        cycles.append(cycle)
                elif succ not in trail:
                    stack.append((succ, trail + [succ]))
    return cycles


@register_pass
def lck002_lock_order(project: Project) -> List[Violation]:
    """KL-LCK002: the static lock-order graph must stay acyclic."""
    edges = build_lock_graph(project.modules, project=project)
    findings = []
    for cycle in find_cycles(edges):
        first_edge = (cycle[0], cycle[1])
        sites = edges.get(first_edge) or [("<unknown>", 0)]
        path, line = sites[0]
        findings.append(
            Violation(
                "KL-LCK002",
                path,
                line,
                0,
                "lock-order cycle: " + " -> ".join(cycle)
                + "; impose a global acquisition order",
            )
        )
    return findings
