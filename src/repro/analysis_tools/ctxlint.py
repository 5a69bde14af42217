"""KL-CTX001: TraceContext propagation lint.

PR 3 threaded a ``TraceContext`` by argument through the stack; the
span-leak class it fixed by hand (a layer holding a ``ctx`` but calling
a ctx-accepting callee without it, silently re-rooting the trace) is
what this rule catches mechanically.

Matching is conservative: a callsite is only checked when the receiver
name maps to a class known (from the same lint run) to define the called
method with a ``ctx`` parameter.  Receiver aliases are derived from the
class name (``KamlLog`` -> ``kaml_log``/``log``/``logs``), so renamed
receivers escape the rule — reviewers still own those.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Sequence, Set

from repro.analysis_tools.core import (
    LintModule,
    Violation,
    dotted_name,
    iter_functions,
    receiver_text,
    register_pass,
    walk_own,
)

CTX_PARAM = "ctx"


def snake(name: str) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


def class_aliases(class_name: str) -> Set[str]:
    """Receiver spellings that plausibly hold an instance of the class.

    ``KamlLog`` -> ``kaml_log``/``kamllog``/``log``/``logs``/``self``.
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


def _params(func: ast.FunctionDef) -> List[str]:
    args = func.args
    names = [a.arg for a in args.posonlyargs] if hasattr(args, "posonlyargs") else []
    names += [a.arg for a in args.args]
    names += [a.arg for a in args.kwonlyargs]
    return names


def _accepting_defs(modules: Sequence[LintModule]) -> Dict[str, Set[str]]:
    """method name -> class names defining it with a ``ctx`` parameter."""
    accepting: Dict[str, Set[str]] = {}
    for module in modules:
        for class_name, func in iter_functions(module.tree):
            if class_name is None:
                continue
            if CTX_PARAM in _params(func):
                accepting.setdefault(func.name, set()).add(class_name)
    return accepting


def _ctx_in_scope(func: ast.FunctionDef) -> bool:
    """Does the function hold a ctx — as a parameter or from a tracer?"""
    if CTX_PARAM in _params(func):
        return True
    for node in walk_own(func):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            dotted = dotted_name(node.value.func)
            if dotted is not None and dotted.endswith(".request"):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == CTX_PARAM:
                        return True
    return False


def _passes_ctx(call: ast.Call) -> bool:
    for keyword in call.keywords:
        if keyword.arg == CTX_PARAM:
            return True
    return any(
        isinstance(arg, ast.Name) and arg.id == CTX_PARAM for arg in call.args
    )


def _receiver_matches(
    receiver: Optional[str], classes: Set[str], own_class: Optional[str]
) -> Optional[str]:
    """Which candidate class (if any) this receiver plausibly is."""
    if receiver is None:
        return None
    tail = receiver.split(".")[-1]
    for class_name in sorted(classes):
        if tail == "self" and class_name != own_class:
            continue
        if tail in class_aliases(class_name):
            return class_name
    return None


@register_pass
def ctx001_propagation(modules: Sequence[LintModule]) -> List[Violation]:
    """KL-CTX001: thread a held ``ctx`` into every ctx-accepting callee."""
    accepting = _accepting_defs(modules)
    findings: List[Violation] = []
    for module in modules:
        for class_name, func in iter_functions(module.tree):
            if not _ctx_in_scope(func):
                continue
            for node in walk_own(func):
                if not isinstance(node, ast.Call):
                    continue
                if not isinstance(node.func, ast.Attribute):
                    continue
                method = node.func.attr
                if method not in accepting:
                    continue
                receiver = receiver_text(node.func.value)
                matched = _receiver_matches(
                    receiver, accepting[method], class_name
                )
                if matched is None or _passes_ctx(node):
                    continue
                findings.append(
                    Violation(
                        "KL-CTX001",
                        str(module.path),
                        node.lineno,
                        node.col_offset,
                        f"`{receiver}.{method}(...)` accepts ctx "
                        f"({matched}.{method}) but the held ctx is not "
                        "passed; the callee's spans re-root into a new trace",
                    )
                )
    return findings

