"""Interprocedural analysis framework: the project call graph.

Built once per lint run from the parsed modules, then shared by every
pass (:class:`~repro.analysis_tools.core.Project` is constructed in
``run_analysis``).  Three layers:

* **Function/class index** — every ``def`` in the tree, keyed by a
  file-qualified uid, plus per-class attribute types inferred from
  ``self.x = ClassName(...)`` assignments.
* **Call edges** — each callsite resolved to candidate callees through
  a receiver resolver that extends ``ctxlint``'s class-alias heuristics
  with attribute- and local-type inference.  ``env.process(f(...))``
  callsites are tagged as *spawn* edges: the spawned generator is a sim
  process root, and spawn edges are never traversed when computing what
  runs *inside* a given process (the child is a different process).
* **Reachability + lock context** — breadth-first reachability from any
  function with the shortest call chain recorded per reached function
  (rules render these as ``trace``), and a per-function latch timeline
  answering "which ``SimLock`` sites are held at this source position"
  so interprocedural rules can propagate lock context through calls.

Resolution is deliberately conservative: an unresolvable receiver adds
no edge.  Rules built on the graph therefore under-approximate
reachability rather than hallucinate it — the same contract the
per-function rules have always had.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis_tools.core import (
    LintModule,
    TryThenWait,
    dotted_name,
    is_generator,
    method_calls,
    receiver_text,
    walk_own,
)

#: Latch release names (mirrors repro.sim.sync.SimLock's surface); the
#: acquire side is ``acquire``/``try_acquire`` through :class:`TryThenWait`.
RELEASE_METHODS = {"release", "release_all", "release_one"}


def snake(name: str) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


def class_aliases(class_name: str) -> Set[str]:
    """Receiver spellings that plausibly hold an instance of the class.

    ``KamlLog`` -> ``kaml_log``/``kamllog``/``log``/``logs``/``self``;
    shared by ctxlint's KL-CTX001 resolver and the call-graph fallback.
    """
    snaked = snake(class_name)
    aliases = {snaked, snaked.replace("_", "")}
    parts = snaked.split("_")
    aliases.add(parts[-1])          # kaml_log -> log
    aliases.add(parts[-1] + "s")    # collections: logs[i]
    if parts[0] in ("kaml", "repro"):
        aliases.add("_".join(parts[1:]))
    aliases.add("self")             # sibling methods on the same class
    return aliases


@dataclass
class FunctionInfo:
    """One ``def`` in the project."""

    module: LintModule
    class_name: Optional[str]
    func: ast.FunctionDef
    uid: str        # file-qualified: "<path>::Class.method"
    display: str    # human name: "Class.method" or "function"
    is_generator: bool

    @property
    def path(self) -> str:
        return str(self.module.path)


@dataclass
class ClassInfo:
    """One ``class`` definition plus inferred attribute types."""

    name: str
    module: LintModule
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    base_names: List[str] = field(default_factory=list)
    #: self.<attr> -> class name assigned from a ``ClassName(...)`` call
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class CallSite:
    """One resolved callsite: caller -> callee."""

    callee: str     # FunctionInfo uid
    line: int
    col: int
    spawn: bool     # env.process(...) spawn, not a same-process call


@dataclass(frozen=True)
class SpawnSite:
    """One ``env.process(f(...))`` site making ``root`` a sim process."""

    root: str       # spawned FunctionInfo uid
    spawner: str    # FunctionInfo uid containing the spawn call
    line: int


class LockTimeline:
    """Latch acquire/release events of one function, in source order.

    Canonical sites are ``ClassName.attr`` for ``self.*`` receivers (the
    same canonicalisation the KL-LCK rules use), so lock identity is
    stable across the functions of one class.
    """

    def __init__(self, events: List[Tuple[Tuple[int, int], str, str]]):
        #: ((line, col), "acq"|"rel", site) sorted by position
        self.events = events

    def held_at(self, line: int, col: int) -> FrozenSet[str]:
        """Lock sites held just before the given source position."""
        held: List[str] = []
        for (ev_line, ev_col), kind, site in self.events:
            if (ev_line, ev_col) >= (line, col):
                break
            if kind == "acq":
                held.append(site)
            else:
                for index in range(len(held) - 1, -1, -1):
                    if held[index] == site:
                        del held[index]
                        break
        return frozenset(held)


def canonical_site(receiver: Optional[str], class_name: Optional[str]) -> Optional[str]:
    """``self.x`` -> ``Class.x``; other receivers keep their dotted text."""
    if receiver is None:
        return None
    if receiver == "self" or receiver.startswith("self."):
        owner = class_name or "<module>"
        attr = receiver[len("self."):] if receiver.startswith("self.") else ""
        return f"{owner}.{attr}" if attr else owner
    return receiver


class Project:
    """The shared analysis context: modules + interprocedural call graph."""

    def __init__(self, modules: Sequence[LintModule]):
        self.modules: List[LintModule] = list(modules)
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, List[ClassInfo]] = {}
        #: module path -> module-level function name -> FunctionInfo
        self._module_functions: Dict[str, Dict[str, FunctionInfo]] = {}
        self._index()
        #: caller uid -> callsites (resolved; unresolvable calls add none)
        self.call_edges: Dict[str, List[CallSite]] = {}
        self.spawn_sites: List[SpawnSite] = []
        self._local_types_cache: Dict[str, Dict[str, str]] = {}
        self._lock_timelines: Dict[str, LockTimeline] = {}
        self._resolve_all_calls()

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------

    def _index(self) -> None:
        for module in self.modules:
            path = str(module.path)
            self._module_functions[path] = {}
            for node in module.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info = self._add_function(module, None, node)
                    self._module_functions[path][node.name] = info
                elif isinstance(node, ast.ClassDef):
                    cls = ClassInfo(
                        name=node.name,
                        module=module,
                        node=node,
                        base_names=[
                            base.id for base in node.bases if isinstance(base, ast.Name)
                        ],
                    )
                    for child in node.body:
                        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            cls.methods[child.name] = self._add_function(
                                module, node.name, child
                            )
                    self.classes.setdefault(node.name, []).append(cls)
        # Second pass, once every class is known: ``self.x = ClassName(...)``
        # must type ``x`` wherever in the tree ClassName is defined.
        for candidates in self.classes.values():
            for cls in candidates:
                self._infer_attr_types(cls)

    def _add_function(
        self, module: LintModule, class_name: Optional[str], func: ast.FunctionDef
    ) -> FunctionInfo:
        display = f"{class_name}.{func.name}" if class_name else func.name
        uid = f"{module.path}::{display}"
        info = FunctionInfo(
            module=module,
            class_name=class_name,
            func=func,
            uid=uid,
            display=display,
            is_generator=is_generator(func),
        )
        self.functions[uid] = info
        return info

    def _infer_attr_types(self, cls: ClassInfo) -> None:
        """``self.x = ClassName(...)`` anywhere in the class types attr x."""
        for info in cls.methods.values():
            for node in walk_own(info.func):
                if not isinstance(node, ast.Assign):
                    continue
                value = node.value
                if not (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)):
                    continue
                type_name = value.func.id
                if type_name not in self.classes and not self._class_exists(type_name):
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        cls.attr_types.setdefault(target.attr, type_name)

    def _class_exists(self, name: str) -> bool:
        return name in self.classes

    # ------------------------------------------------------------------
    # Class / receiver resolution
    # ------------------------------------------------------------------

    def class_info(
        self, name: str, prefer_module: Optional[LintModule] = None
    ) -> Optional[ClassInfo]:
        candidates = self.classes.get(name)
        if not candidates:
            return None
        if prefer_module is not None:
            for cls in candidates:
                if cls.module is prefer_module:
                    return cls
        if len(candidates) == 1:
            return candidates[0]
        return sorted(candidates, key=lambda c: str(c.module.path))[0]

    def find_method(
        self, cls: Optional[ClassInfo], method: str, _seen: Optional[Set[str]] = None
    ) -> Optional[FunctionInfo]:
        """Method lookup with single-inheritance base chasing."""
        if cls is None:
            return None
        if method in cls.methods:
            return cls.methods[method]
        seen = _seen or set()
        seen.add(cls.name)
        for base_name in cls.base_names:
            if base_name in seen:
                continue
            found = self.find_method(
                self.class_info(base_name, cls.module), method, seen
            )
            if found is not None:
                return found
        return None

    def local_types(self, info: FunctionInfo) -> Dict[str, str]:
        """Local variable -> class name, inferred from simple assignments.

        ``x = ClassName(...)`` and ``x = self.attr`` (with a typed attr)
        are tracked; anything cleverer is left unresolved.
        """
        cached = self._local_types_cache.get(info.uid)
        if cached is not None:
            return cached
        types: Dict[str, str] = {}
        own_class = self.class_info(info.class_name, info.module) if info.class_name else None
        for node in walk_own(info.func):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = node.value
            if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
                if self._class_exists(value.func.id):
                    types[target.id] = value.func.id
            elif (
                isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "self"
                and own_class is not None
                and value.attr in own_class.attr_types
            ):
                types[target.id] = own_class.attr_types[value.attr]
        self._local_types_cache[info.uid] = types
        return types

    def resolve_receiver_class(
        self, info: FunctionInfo, receiver: Optional[str], method: str
    ) -> Optional[ClassInfo]:
        """Which class a ``receiver.method(...)`` call lands on, if known.

        Resolution order: ``self`` / typed ``self.attr`` / typed local /
        the ctxlint-style alias heuristic (unique tail match among the
        classes that actually define ``method``).
        """
        if receiver is None:
            return None
        own_class = self.class_info(info.class_name, info.module) if info.class_name else None
        parts = receiver.split(".")
        if parts[0] == "self" and own_class is not None:
            if len(parts) == 1:
                return own_class
            if len(parts) == 2 and parts[1] in own_class.attr_types:
                return self.class_info(own_class.attr_types[parts[1]], info.module)
            # deeper self.a.b chains: fall through to the alias heuristic
        elif len(parts) == 1:
            local_type = self.local_types(info).get(parts[0])
            if local_type is not None:
                return self.class_info(local_type, info.module)
        # Alias fallback, restricted to classes defining the method.
        tail = parts[-1]
        if tail == "self":
            return None
        matches = []
        for class_name in sorted(self.classes):
            candidates = self.classes[class_name]
            if not any(method in cls.methods for cls in candidates):
                continue
            if tail in class_aliases(class_name):
                matches.append(class_name)
        if len(matches) == 1:
            return self.class_info(matches[0], info.module)
        return None

    def resolve_attr_base(
        self, info: FunctionInfo, base: Optional[str]
    ) -> Optional[str]:
        """Canonical owner for an attribute access base expression.

        ``self`` -> the enclosing class; a typed local -> its class; a
        unique alias-tail match -> that class.  Returns the class *name*
        (shared-state keys are ``ClassName.attr``), or None.
        """
        if base is None:
            return None
        parts = base.split(".")
        if parts[0] == "self":
            if len(parts) == 1:
                return info.class_name
            own_class = (
                self.class_info(info.class_name, info.module) if info.class_name else None
            )
            if own_class is not None and len(parts) == 2:
                return own_class.attr_types.get(parts[1])
            return None
        if len(parts) == 1:
            local_type = self.local_types(info).get(parts[0])
            if local_type is not None:
                return local_type
            tail = parts[0]
            matches = [
                class_name
                for class_name in sorted(self.classes)
                if tail != "self" and tail in class_aliases(class_name)
            ]
            if len(matches) == 1:
                return matches[0]
        return None

    # ------------------------------------------------------------------
    # Call edges and spawns
    # ------------------------------------------------------------------

    def _resolve_all_calls(self) -> None:
        for info in self.functions.values():
            sites: List[CallSite] = []
            for node in walk_own(info.func):
                if not isinstance(node, ast.Call):
                    continue
                spawn_target = self._spawn_target(node)
                if spawn_target is not None:
                    target_info = self._resolve_call(info, spawn_target)
                    if target_info is not None:
                        sites.append(
                            CallSite(target_info.uid, node.lineno, node.col_offset, True)
                        )
                        self.spawn_sites.append(
                            SpawnSite(target_info.uid, info.uid, node.lineno)
                        )
                    continue
                callee = self._resolve_call(info, node)
                if callee is not None:
                    sites.append(
                        CallSite(callee.uid, node.lineno, node.col_offset, False)
                    )
            self.call_edges[info.uid] = sites

    @staticmethod
    def _spawn_target(node: ast.Call) -> Optional[ast.Call]:
        """The ``f(...)`` argument of an ``env.process(f(...))`` call."""
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "process"):
            return None
        receiver = receiver_text(func.value)
        if receiver is None or receiver.split(".")[-1] != "env":
            return None
        if node.args and isinstance(node.args[0], ast.Call):
            return node.args[0]
        return None

    def _resolve_call(
        self, info: FunctionInfo, call: ast.Call
    ) -> Optional[FunctionInfo]:
        func = call.func
        if isinstance(func, ast.Name):
            return self._module_functions.get(info.path, {}).get(func.id)
        if not isinstance(func, ast.Attribute):
            return None
        method = func.attr
        receiver = receiver_text(func.value)
        cls = self.resolve_receiver_class(info, receiver, method)
        return self.find_method(cls, method)

    def process_roots(self) -> List[SpawnSite]:
        """Every statically-visible ``env.process`` spawn, deduplicated by
        spawned function (first spawn site wins, deterministically)."""
        seen: Set[str] = set()
        roots: List[SpawnSite] = []
        for site in sorted(self.spawn_sites, key=lambda s: (s.root, s.spawner, s.line)):
            if site.root in seen:
                continue
            seen.add(site.root)
            roots.append(site)
        return roots

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------

    def reachable_tree(
        self, root: str, *, through_spawns: bool = False
    ) -> Dict[str, Optional[Tuple[str, CallSite]]]:
        """BFS tree from ``root``: uid -> (parent uid, callsite), None at root.

        Spawn edges are excluded by default: code a process *spawns* runs
        in a different process and must not count as "inside" this one.
        """
        if root not in self.functions:
            return {}
        tree: Dict[str, Optional[Tuple[str, CallSite]]] = {root: None}
        frontier = [root]
        while frontier:
            next_frontier: List[str] = []
            for uid in frontier:
                for site in self.call_edges.get(uid, ()):  # noqa: B007
                    if site.spawn and not through_spawns:
                        continue
                    if site.callee in tree:
                        continue
                    tree[site.callee] = (uid, site)
                    next_frontier.append(site.callee)
            frontier = next_frontier
        return tree

    def chain(
        self, tree: Dict[str, Optional[Tuple[str, CallSite]]], uid: str
    ) -> Tuple[str, ...]:
        """Display-name call chain from the tree's root down to ``uid``."""
        names: List[str] = []
        cursor: Optional[str] = uid
        while cursor is not None:
            names.append(self.functions[cursor].display)
            step = tree.get(cursor)
            cursor = step[0] if step else None
        return tuple(reversed(names))

    def chain_held_locks(
        self, tree: Dict[str, Optional[Tuple[str, CallSite]]], uid: str
    ) -> FrozenSet[str]:
        """Lock sites held at the callsites leading from the root to ``uid``.

        A lock acquired by a caller and still held at the callsite stays
        held for the whole callee subtree (latches release in the
        acquiring function, per KL-LCK001), so the union over the chain
        is the interprocedural lock context of ``uid``.
        """
        held: Set[str] = set()
        cursor: Optional[str] = uid
        while cursor is not None:
            step = tree.get(cursor)
            if not step:
                break
            caller, site = step
            timeline = self.lock_timeline(self.functions[caller])
            held.update(timeline.held_at(site.line, site.col))
            cursor = caller
        return frozenset(held)

    def reachable(
        self, root: str, *, through_spawns: bool = False
    ) -> Dict[str, Tuple[str, ...]]:
        """Functions reachable from ``root`` with the shortest call chain.

        Chains are tuples of display names, root first.
        """
        tree = self.reachable_tree(root, through_spawns=through_spawns)
        return {uid: self.chain(tree, uid) for uid in tree}

    def transitive_callees(self, root: str) -> Set[str]:
        """All uids reachable from ``root`` through plain (non-spawn) calls."""
        return set(self.reachable(root))

    def callers_of(self, uid: str) -> List[Tuple[str, CallSite]]:
        """(caller uid, callsite) pairs targeting ``uid``."""
        result = []
        for caller, sites in self.call_edges.items():
            for site in sites:
                if site.callee == uid:
                    result.append((caller, site))
        return result

    # ------------------------------------------------------------------
    # Latch timelines
    # ------------------------------------------------------------------

    def lock_timeline(self, info: FunctionInfo) -> LockTimeline:
        """Acquire/release events of one function in source order."""
        cached = self._lock_timelines.get(info.uid)
        if cached is not None:
            return cached
        events: List[Tuple[Tuple[int, int], str, str]] = []
        idiom = TryThenWait("acquire")
        for node in method_calls(info.func):
            method = node.func.attr
            site = canonical_site(receiver_text(node.func.value), info.class_name)
            if site is None:
                continue
            if idiom.acquires(method, site):
                events.append(((node.lineno, node.col_offset), "acq", site))
            elif method in RELEASE_METHODS:
                idiom.released(site)
                events.append(((node.lineno, node.col_offset), "rel", site))
        timeline = LockTimeline(events)
        self._lock_timelines[info.uid] = timeline
        return timeline

    def held_through_chain(
        self, chain_sites: Iterable[Tuple[FunctionInfo, Tuple[int, int]]]
    ) -> FrozenSet[str]:
        """Union of lock sites held at each callsite along a chain."""
        held: Set[str] = set()
        for info, (line, col) in chain_sites:
            held.update(self.lock_timeline(info).held_at(line, col))
        return frozenset(held)


def iter_project_functions(project: Project):
    """Deterministic iteration over every function in the project."""
    for uid in sorted(project.functions):
        yield project.functions[uid]
