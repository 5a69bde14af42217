"""KL-SIM001 (no host I/O in sim processes) and KL-INV001 (no
``assert`` guards in production code).

A sim process is a generator the kernel resumes between events; a
blocking host call inside one stalls the *entire* simulated world and
ties experiment timing to host state.  KL-SIM001 checks each
generator's own body.  ``assert`` guards disappear under ``python -O``
— invariants must raise :class:`repro.errors.InvariantError`.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence

from repro.analysis_tools.core import (
    LintModule,
    TOOLING_SUBPACKAGES,
    Violation,
    dotted_name,
    register_pass,
)

#: The harness drives experiments and prints reports from sim processes
#: on purpose (the obs CLI dashboard); it is exempt from KL-SIM001.
_SIM001_EXEMPT = TOOLING_SUBPACKAGES | {"harness"}

_BLOCKING_BARE = {"open", "input", "print", "breakpoint", "exec", "eval"}
_BLOCKING_DOTTED = (
    "time.sleep",
    "os.system",
    "os.popen",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_output",
    "subprocess.Popen",
    "socket.socket",
    "sys.stdout.write",
    "sys.stderr.write",
    "urllib.request.urlopen",
    "requests.get",
    "requests.post",
)


def _functions(tree: ast.Module):
    """Every top-level function and method of a module."""
    for node in tree.body:
        for child in node.body if isinstance(node, ast.ClassDef) else [node]:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child


def _walk_own(func: ast.AST):
    """Walk a function's own body, not descending into nested defs."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _blocking_desc(node: ast.AST) -> Optional[str]:
    """The dotted name of a blocking host-I/O call, or None."""
    if not isinstance(node, ast.Call):
        return None
    dotted = dotted_name(node.func)
    if dotted is None:
        return None
    if dotted in _BLOCKING_BARE:
        return dotted
    if any(
        dotted == suffix or dotted.endswith("." + suffix)
        for suffix in _BLOCKING_DOTTED
    ):
        return dotted
    return None


@register_pass
def sim001_blocking_io(modules: Sequence[LintModule]) -> List[Violation]:
    """KL-SIM001: generator sim processes must not call host I/O."""
    findings = []
    for module in modules:
        if module.subpackage in _SIM001_EXEMPT:
            continue
        for func in _functions(module.tree):
            own = list(_walk_own(func))
            if not any(isinstance(node, (ast.Yield, ast.YieldFrom)) for node in own):
                continue  # not a sim process
            for node in own:
                dotted = _blocking_desc(node)
                if dotted is None:
                    continue
                findings.append(
                    Violation(
                        "KL-SIM001",
                        str(module.path),
                        node.lineno,
                        node.col_offset,
                        f"sim process `{func.name}` calls blocking "
                        f"host I/O `{dotted}()`",
                    )
                )
    return findings


@register_pass
def inv001_no_assert(modules: Sequence[LintModule]) -> List[Violation]:
    """KL-INV001: guards must survive ``python -O``."""
    findings = []
    for module in modules:
        if module.subpackage in TOOLING_SUBPACKAGES:
            continue
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assert):
                findings.append(
                    Violation(
                        "KL-INV001",
                        str(module.path),
                        node.lineno,
                        node.col_offset,
                        "bare `assert` is stripped by python -O; raise "
                        "repro.errors.InvariantError instead",
                    )
                )
    return findings
