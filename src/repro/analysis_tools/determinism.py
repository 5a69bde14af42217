"""Determinism lints: KL-DET001 (wall clock), KL-DET002 (global random),
KL-DET003 (set-order iteration).

The perf gate and every ``to_json`` artifact comparison depend on
identical runs producing identical output; these rules remove the three
classic leak paths — wall-clock reads, the process-global RNG, and
hash-order-dependent iteration.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence, Set

from repro.analysis_tools.core import (
    LintModule,
    TOOLING_SUBPACKAGES,
    Violation,
    dotted_name,
    register_pass,
)

#: Dotted-call suffixes that read the host clock.
_WALLCLOCK_SUFFIXES = (
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.localtime",
    "time.ctime",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
)

#: Names importable from ``time``/``datetime`` that read the host clock.
_WALLCLOCK_IMPORTS = {
    "time": {"time", "time_ns", "monotonic", "perf_counter", "process_time"},
    "datetime": set(),  # datetime.datetime is caught at the call site
}


def _matches_wallclock(dotted: str) -> bool:
    return any(
        dotted == suffix or dotted.endswith("." + suffix)
        for suffix in _WALLCLOCK_SUFFIXES
    )


@register_pass
def det001_wall_clock(modules: Sequence[LintModule]) -> List[Violation]:
    """KL-DET001: sim/firmware code must not read the host clock.

    All timing flows from ``Environment.now``; the one sanctioned
    boundary is the allowlisted ``wallclock()`` helper in
    ``repro.harness.reporting``.
    """
    findings = []
    for module in modules:
        if module.subpackage in TOOLING_SUBPACKAGES:
            continue
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted is not None and _matches_wallclock(dotted):
                    findings.append(
                        Violation(
                            "KL-DET001",
                            str(module.path),
                            node.lineno,
                            node.col_offset,
                            f"wall-clock read `{dotted}()`; use sim time "
                            "(env.now) or harness.reporting.wallclock()",
                        )
                    )
            elif isinstance(node, ast.ImportFrom) and node.module in _WALLCLOCK_IMPORTS:
                banned = _WALLCLOCK_IMPORTS[node.module]
                for alias in node.names:
                    if alias.name in banned:
                        findings.append(
                            Violation(
                                "KL-DET001",
                                str(module.path),
                                node.lineno,
                                node.col_offset,
                                f"imports wall-clock `{node.module}.{alias.name}`",
                            )
                        )
    return findings


@register_pass
def det002_global_random(modules: Sequence[LintModule]) -> List[Violation]:
    """KL-DET002: only injected, seeded ``random.Random`` instances.

    The module-level functions share one process-global generator whose
    state depends on import order and every other caller — a seed leak
    across otherwise-independent experiments.
    """
    findings = []
    for module in modules:
        if module.subpackage in TOOLING_SUBPACKAGES:
            continue
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if (
                    dotted is not None
                    and dotted.startswith("random.")
                    and dotted not in ("random.Random", "random.SystemRandom")
                ):
                    findings.append(
                        Violation(
                            "KL-DET002",
                            str(module.path),
                            node.lineno,
                            node.col_offset,
                            f"module-level `{dotted}()`; inject a seeded "
                            "random.Random instance instead",
                        )
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name not in ("Random", "SystemRandom"):
                        findings.append(
                            Violation(
                                "KL-DET002",
                                str(module.path),
                                node.lineno,
                                node.col_offset,
                                f"imports `random.{alias.name}` (global RNG state)",
                            )
                        )
    return findings


# ----------------------------------------------------------------------
# KL-DET003: iteration over set-typed values
# ----------------------------------------------------------------------


def _is_set_expr(node: ast.AST, set_names: Set[str]) -> Optional[str]:
    """Describe why an expression is set-typed, or None."""
    if isinstance(node, ast.Set):
        return "set literal"
    if isinstance(node, ast.SetComp):
        return "set comprehension"
    if isinstance(node, ast.Call):
        dotted = dotted_name(node.func)
        if dotted in ("set", "frozenset"):
            return f"{dotted}(...) call"
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "union", "intersection", "difference", "symmetric_difference"
        ):
            return f".{node.func.attr}() result"
    if isinstance(node, ast.Name) and node.id in set_names:
        return f"local `{node.id}` assigned from a set expression"
    return None


def _collect_set_locals(func: ast.AST) -> Set[str]:
    """Names assigned a syntactic set expression anywhere in ``func``."""
    names: Set[str] = set()
    for node in ast.walk(func):
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if _is_set_expr(value, set()) is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


@register_pass
def det003_set_iteration(modules: Sequence[LintModule]) -> List[Violation]:
    """KL-DET003: no iteration over set-typed expressions.

    Set iteration order depends on element hashes (salted for strings),
    so a ``for`` over a set can reorder flash programs, lock grants, or
    report rows between runs.  Iterate ``sorted(the_set)`` instead.
    Detection is syntactic plus single-function local inference; sets
    that cross function boundaries are the reviewer's job.
    """
    findings = []
    for module in modules:
        if module.subpackage in TOOLING_SUBPACKAGES:
            continue
        scopes = [module.tree] + [
            node
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for scope in scopes:
            set_names = _collect_set_locals(scope)
            for node in ast.iter_child_nodes(scope):
                findings.extend(
                    _scan_iterations(module, node, set_names, top=scope)
                )
    return findings


def _scan_iterations(
    module: LintModule, root: ast.AST, set_names: Set[str], top: ast.AST
) -> List[Violation]:
    findings = []
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not top:
            continue  # nested function: scanned with its own locals
        iter_exprs = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iter_exprs.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iter_exprs.extend(gen.iter for gen in node.generators)
        for expr in iter_exprs:
            reason = _is_set_expr(expr, set_names)
            if reason is not None:
                findings.append(
                    Violation(
                        "KL-DET003",
                        str(module.path),
                        expr.lineno,
                        expr.col_offset,
                        f"iterates a set ({reason}); wrap in sorted(...) "
                        "for a deterministic order",
                    )
                )
        stack.extend(ast.iter_child_nodes(node))
    return findings
