"""KL-RES001: pins and NVRAM reservations release on every path, across
call boundaries.

Two counted resources keep the firmware honest:

* **block pins** — ``self._pin(block)`` / ``self._unpin(block)``
  (``kaml/mapping.py``) guard flash locations against GC erase; a leaked
  pin wedges GC forever (``wait_unpinned`` never drains).
* **NVRAM reservations** — ``self.nvram.reserve(...)`` (or its
  zero-event form ``try_reserve``, see ``TryThenWait``) /
  ``self.nvram.release(handle)`` bound the persistent staging buffer; a
  leaked handle is permanent back-pressure.

The old heuristic balanced acquire/release inside one function and went
blind the moment a helper did the releasing.  This pass is
interprocedural: every function gets a *net* resource effect, computed
bottom-up over the project call graph (spawn edges included — handing a
handle to a spawned completion process transfers ownership, exactly the
``put``/``_complete_put`` split), and each explicit ``return`` is
checked against the definite balance at that point.

Deliberate imprecision, tuned against this codebase's idioms:

* **Optimistic releases** — a release on *any* path (an ``if`` arm, an
  ``except`` handler) counts, mirroring KL-LCK001; conditional cleanup
  suppresses the flag rather than spamming every branch.
* **``finally`` credit** — releases in a ``finally`` block count toward
  returns inside the corresponding ``try`` body.
* **Uniform producers** — a function whose every exit holds the same
  positive balance is a *producer* by contract (``_pin`` itself); the
  leak, if any, is flagged in a caller that drops the net.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis_tools.core import (
    TOOLING_SUBPACKAGES,
    TryThenWait,
    Violation,
    method_calls,
    receiver_text,
    register_pass,
    walk_own,
)
from repro.analysis_tools.graph import FunctionInfo, Project, iter_project_functions

PIN_ACQUIRE = {"_pin"}
PIN_RELEASE = {"_unpin"}

KINDS = ("pin", "nvram")

Pos = Tuple[int, int]


@dataclass
class _Event:
    """One definite resource delta at a source position."""

    pos: Pos
    kind: str       # "pin" | "nvram"
    delta: int
    desc: str       # "self._pin()" / "net of _helper()" ...


def _own_events(info: FunctionInfo) -> List[_Event]:
    """Acquire/release deltas from the function's own body."""
    events: List[_Event] = []
    idiom = TryThenWait("reserve")
    for node in method_calls(info.func):
        method = node.func.attr
        receiver = receiver_text(node.func.value) or ""
        pos = (node.lineno, node.col_offset)
        if method in PIN_ACQUIRE:
            events.append(_Event(pos, "pin", +1, f"{receiver}.{method}()"))
        elif method in PIN_RELEASE:
            events.append(_Event(pos, "pin", -1, f"{receiver}.{method}()"))
        elif "nvram" not in receiver.lower():
            continue
        elif idiom.acquires(method, receiver):
            events.append(_Event(pos, "nvram", +1, f"{receiver}.{method}()"))
        elif method == "release":
            idiom.released(receiver)
            events.append(_Event(pos, "nvram", -1, f"{receiver}.release()"))
    return events


class _Nets:
    """Bottom-up per-function net resource effect over the call graph."""

    def __init__(self, project: Project):
        self.project = project
        self._memo: Dict[str, Dict[str, int]] = {}
        self._stack: Set[str] = set()

    def net(self, uid: str) -> Dict[str, int]:
        cached = self._memo.get(uid)
        if cached is not None:
            return cached
        if uid in self._stack:  # recursion: assume balanced
            return {kind: 0 for kind in KINDS}
        self._stack.add(uid)
        try:
            info = self.project.functions[uid]
            totals = {kind: 0 for kind in KINDS}
            for event in _own_events(info):
                totals[event.kind] += event.delta
            for site in self.project.call_edges.get(uid, ()):  # noqa: B007
                callee = self.project.functions[site.callee]
                if self._is_resource_primitive(callee):
                    continue  # the callsite itself was the event
                for kind, value in self.net(site.callee).items():
                    totals[kind] += value
            self._memo[uid] = totals
            return totals
        finally:
            self._stack.discard(uid)

    @staticmethod
    def _is_resource_primitive(info: FunctionInfo) -> bool:
        return info.func.name in (PIN_ACQUIRE | PIN_RELEASE)


def _call_events(project: Project, nets: _Nets, info: FunctionInfo) -> List[_Event]:
    """Callee net effects, as events at the callsite position."""
    events: List[_Event] = []
    for site in project.call_edges.get(info.uid, ()):  # noqa: B007
        callee = project.functions[site.callee]
        if nets._is_resource_primitive(callee):
            continue
        for kind, value in sorted(nets.net(site.callee).items()):
            if value != 0:
                verb = "spawns" if site.spawn else "calls"
                events.append(
                    _Event(
                        (site.line, site.col),
                        kind,
                        value,
                        f"{verb} {callee.display} (net {value:+d} {kind})",
                    )
                )
    return events


def _finally_spans(func: ast.FunctionDef) -> List[Tuple[Pos, Pos, Pos]]:
    """(try-body start, finally start, finally end) for each try/finally."""
    spans = []
    for node in walk_own(func):
        if isinstance(node, ast.Try) and node.finalbody:
            body_start = (node.body[0].lineno, node.body[0].col_offset)
            final_start = (node.finalbody[0].lineno, node.finalbody[0].col_offset)
            end_line = getattr(node, "end_lineno", None) or node.finalbody[-1].lineno
            spans.append((body_start, final_start, (end_line + 1, 0)))
    return spans


def _balance_at(
    events: List[_Event],
    spans: List[Tuple[Pos, Pos, Pos]],
    pos: Pos,
) -> Dict[str, int]:
    """Definite resource balance when returning at ``pos``."""
    totals = {kind: 0 for kind in KINDS}
    pending_finally: List[Tuple[Pos, Pos]] = [
        (final_start, final_end)
        for body_start, final_start, final_end in spans
        if body_start <= pos < final_start
    ]
    for event in events:
        runs = event.pos < pos or any(
            start <= event.pos < end for start, end in pending_finally
        )
        if runs:
            totals[event.kind] += event.delta
    return totals


@register_pass
def res001_resource_pairing(project: Project) -> List[Violation]:
    """KL-RES001: no path may exit holding an unaccounted pin/reservation."""
    nets = _Nets(project)
    findings: List[Violation] = []
    for info in iter_project_functions(project):
        if info.module.subpackage in TOOLING_SUBPACKAGES:
            continue
        if nets._is_resource_primitive(info):
            continue
        events = sorted(
            _own_events(info) + _call_events(project, nets, info),
            key=lambda e: e.pos,
        )
        if not any(event.delta > 0 for event in events):
            continue
        spans = _finally_spans(info.func)
        # A return's own value expression runs before the exit (e.g.
        # `return env.process(self._complete_put(...))` hands the handle
        # off), so the exit position is the *end* of the statement.
        exits: List[Tuple[Pos, str]] = [
            ((getattr(node, "end_lineno", None) or node.lineno, 10**6), "return")
            for node in walk_own(info.func)
            if isinstance(node, ast.Return)
        ]
        last = info.func.body[-1]
        if not isinstance(last, (ast.Return, ast.Raise)):
            end_line = getattr(info.func, "end_lineno", None) or last.lineno
            exits.append(((end_line + 1, 0), "fall-through"))
        exits.sort()
        balances = [_balance_at(events, spans, pos) for pos, _kind in exits]
        for kind in KINDS:
            values = [balance[kind] for balance in balances]
            if not values or max(values) <= 0:
                continue
            if min(values) == max(values):
                continue  # uniform producer: callers account for the net
            for (pos, exit_kind), balance in zip(exits, balances):
                if balance[kind] <= 0:
                    continue
                acquired = [
                    event.desc
                    for event in events
                    if event.kind == kind and event.delta > 0 and event.pos < pos
                ]
                source = acquired[0] if acquired else "an earlier acquire"
                findings.append(
                    Violation(
                        "KL-RES001",
                        str(info.path),
                        pos[0] if exit_kind == "return" else pos[0] - 1,
                        0,
                        f"`{info.display}` exits here holding "
                        f"{balance[kind]} unreleased {kind} "
                        f"(from {source}); release it, hand it to a "
                        "completion process, or make every exit uniform",
                        trace=(info.display,),
                    )
                )
    return findings
