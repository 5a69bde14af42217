"""KL-RACE001: cross-process use of shared state across a yield.

The static analogue of the read-vs-GC relocation race PR 5 fixed at
runtime: a sim process loads a shared attribute into a local, yields
(letting the scheduler run other processes), then trusts the stale
local — while a *different* process mutates the same attribute with no
common ``SimLock`` protecting the pair.

Between-yield atomicity makes plain shared-state access safe inside one
synchronous block, so the rule fires only on the combination that
actually breaks that discipline:

* a **cross-yield stale read** (load -> yield -> use of the same local)
  inside code reachable from one statically-spawned process root, and
* a **mutation** of the same ``Owner.attr`` key inside code reachable
  from a *different* process root, and
* **no common lock**: the locks held across the reader's load->use
  window (including latches held by callers up the chain) share nothing
  with the locks held at the writer's mutation site.

Reachability and attribute resolution come from the project call graph
(:mod:`repro.analysis_tools.graph`); the per-function read/write facts
from the dataflow engine (:mod:`repro.analysis_tools.dataflow`).  Both
under-approximate, so an unresolvable receiver silences the rule rather
than producing a spurious race.

The fix is the same one ``Mapping.read`` applies in ``kaml/mapping.py``:
re-validate (or pin) the shared state *after* the yield, in the same
sim instant as its use, or hold a common lock across the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from repro.analysis_tools.core import (
    TOOLING_SUBPACKAGES,
    Violation,
    register_pass,
)
from repro.analysis_tools.dataflow import analyze_function
from repro.analysis_tools.graph import Project


@dataclass(frozen=True)
class _Access:
    """One read or write of a shared attribute, in process context."""

    root: str               # process-root uid
    root_display: str
    func_uid: str
    path: str
    line: int
    col: int
    locks: FrozenSet[str]   # access-site locks ∪ chain-held locks
    chain: Tuple[str, ...]  # root -> ... -> accessing function
    detail: str             # "read into `loc`" / ".pop() write"


def _process_accesses(
    project: Project,
) -> Tuple[Dict[str, List[_Access]], Dict[str, List[_Access]]]:
    """Cross-yield reads and writes per shared-attribute key."""
    reads: Dict[str, List[_Access]] = {}
    writes: Dict[str, List[_Access]] = {}
    summaries: Dict[str, object] = {}
    for spawn in project.process_roots():
        root_info = project.functions[spawn.root]
        root_display = root_info.display
        tree = project.reachable_tree(spawn.root)
        for uid in sorted(tree):
            info = project.functions[uid]
            if info.module.subpackage in TOOLING_SUBPACKAGES:
                continue
            summary = summaries.get(uid)
            if summary is None:
                summary = analyze_function(project, info)
                summaries[uid] = summary
            chain = project.chain(tree, uid)
            chain_locks = project.chain_held_locks(tree, uid)
            for read in summary.reads:
                reads.setdefault(read.key, []).append(
                    _Access(
                        root=spawn.root,
                        root_display=root_display,
                        func_uid=uid,
                        path=str(info.path),
                        line=read.use_line,
                        col=read.use_col,
                        locks=read.locks | chain_locks,
                        chain=chain,
                        detail=(
                            f"`{read.var}` loaded from {read.key} at line "
                            f"{read.load_line}, used after a yield"
                        ),
                    )
                )
            for write in summary.writes:
                writes.setdefault(write.key, []).append(
                    _Access(
                        root=spawn.root,
                        root_display=root_display,
                        func_uid=uid,
                        path=str(info.path),
                        line=write.line,
                        col=write.col,
                        locks=write.locks | chain_locks,
                        chain=chain,
                        detail=write.desc,
                    )
                )
    return reads, writes


@register_pass
def race001_cross_process(project: Project) -> List[Violation]:
    """KL-RACE001: no unlocked cross-process stale use of shared state."""
    reads, writes = _process_accesses(project)
    findings: List[Violation] = []
    reported = set()
    for key in sorted(set(reads) & set(writes)):
        for read in reads[key]:
            racing = [
                write
                for write in writes[key]
                if write.root != read.root and not (write.locks & read.locks)
            ]
            if not racing:
                continue
            anchor = (read.path, read.line, read.col, key)
            if anchor in reported:
                continue
            reported.add(anchor)
            write = sorted(racing, key=lambda w: (w.path, w.line, w.col))[0]
            findings.append(
                Violation(
                    "KL-RACE001",
                    read.path,
                    read.line,
                    read.col,
                    f"stale use of {key} across a yield in process "
                    f"`{read.root_display}` ({read.detail}) races with "
                    f"{write.detail} in process `{write.root_display}` "
                    f"({write.path}:{write.line}); no common lock — "
                    "re-validate after the yield or hold a shared SimLock",
                    trace=read.chain + ("<-races->",) + write.chain,
                )
            )
    return findings
