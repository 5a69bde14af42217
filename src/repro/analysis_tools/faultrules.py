"""Fault-injection hygiene: KL-FLT001 (no mapping-table peeking).

The crash-consistency harness is only evidence of recovery correctness
if it observes the device the way a host does — through ``get``/``put``/
``delete``/``recover``.  A fault scenario that reads the mapping table
or staging dictionaries directly would "verify" recovery against the
very state recovery rebuilds, letting a bug vanish into its own test.
"""

from __future__ import annotations

import ast
from typing import List, Sequence

from repro.analysis_tools.core import (
    LintModule,
    TOOLING_SUBPACKAGES,
    Violation,
    register_pass,
)

#: Device-private state fault code must never read: the per-namespace
#: mapping table, and the ``Mapping`` with its install/staging bookkeeping.
_FORBIDDEN_ATTRS = {
    "index",
    "mapping",
    "_installed_versions",
    "_staged",
    "_valid_bytes",
    "_tombstones",
}


def _is_fault_module(module: LintModule) -> bool:
    if module.subpackage in TOOLING_SUBPACKAGES:
        return False
    return module.subpackage == "fault" or module.path.name.startswith("fault")


@register_pass
def flt001_no_mapping_peek(modules: Sequence[LintModule]) -> List[Violation]:
    """KL-FLT001: fault-injection code must not read mapping-table state.

    Flags every Load-context attribute access to the forbidden names in
    modules under ``repro/fault/`` (or files named ``fault*``).  Writes
    are not flagged — there are none to write to from outside, and the
    Load restriction is what keeps verification honest.
    """
    findings = []
    for module in modules:
        if not _is_fault_module(module):
            continue
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and node.attr in _FORBIDDEN_ATTRS
            ):
                findings.append(
                    Violation(
                        "KL-FLT001",
                        str(module.path),
                        node.lineno,
                        node.col_offset,
                        f"fault code reads device-private `{node.attr}`; "
                        "observe the device through its public command "
                        "surface (get/put/delete/recover)",
                    )
                )
    return findings
