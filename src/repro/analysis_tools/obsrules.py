"""KL-OBS001: span-name and component-tag taxonomy lint.

The kamlprof attribution (``repro.obs.profile``) maps every span name to
a latency component; a span emitted under an unregistered name silently
lands in the ``other`` bucket and the breakdown stops explaining where
the time went.  This rule keeps the vocabulary closed: every string
literal passed as the name of ``.begin`` / ``.span`` / ``.record_span``
/ ``.event`` / ``.request``, and every ``component=`` string literal,
must be registered in ``SPAN_COMPONENTS`` / ``COMPONENTS``.

Matching is conservative: only string *literals* are checked — a name
built dynamically (f-string, variable) is skipped — and the receiver
must look like a trace context or tracer (``ctx.begin``,
``flush_ctx.span``, ``self.tracer.request``): other objects with a
``begin``/``event``/``request`` method (shadow models, environments,
resources) are out of scope.  New span names are cheap to register: add
the name and its component to ``repro.obs.profile.SPAN_COMPONENTS``.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence

from repro.analysis_tools.core import (
    TOOLING_SUBPACKAGES,
    LintModule,
    Violation,
    receiver_text,
    register_pass,
)
from repro.obs.profile import COMPONENTS, KNOWN_SPAN_NAMES

RULE = "KL-OBS001"

#: Methods whose first argument names a span (or a trace root).
SPAN_METHODS = frozenset({"begin", "span", "record_span", "event", "request"})


def _is_trace_receiver(receiver: Optional[str]) -> bool:
    """Does the receiver's dotted text plausibly hold a ctx or tracer?"""
    if receiver is None:
        return False
    last = receiver.split(".")[-1]
    return "ctx" in last or "tracer" in last


def _first_literal(call: ast.Call) -> "ast.Constant | None":
    if not call.args:
        return None
    first = call.args[0]
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        return first
    return None


@register_pass
def span_taxonomy_pass(modules: Sequence[LintModule]) -> List[Violation]:
    findings: List[Violation] = []
    for module in modules:
        if module.subpackage in TOOLING_SUBPACKAGES:
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in SPAN_METHODS
                and _is_trace_receiver(receiver_text(node.func.value))
            ):
                literal = _first_literal(node)
                if literal is not None and literal.value not in KNOWN_SPAN_NAMES:
                    findings.append(
                        Violation(
                            rule=RULE,
                            path=str(module.path),
                            line=literal.lineno,
                            col=literal.col_offset,
                            message=(
                                f"span name {literal.value!r} is not registered "
                                "in repro.obs.profile.SPAN_COMPONENTS; kamlprof "
                                "would attribute it to 'other'"
                            ),
                        )
                    )
            for keyword in node.keywords:
                if keyword.arg != "component":
                    continue
                value = keyword.value
                if (
                    isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                    and value.value not in COMPONENTS
                ):
                    findings.append(
                        Violation(
                            rule=RULE,
                            path=str(module.path),
                            line=value.lineno,
                            col=value.col_offset,
                            message=(
                                f"component tag {value.value!r} is not in "
                                "repro.obs.profile.COMPONENTS"
                            ),
                        )
                    )
    return findings
