"""``kamllint``: protocol/determinism static analysis for the KAML stack.

An AST-based lint pass over ``src/repro`` enforcing the invariants the
concurrency design relies on (see ``docs/static-analysis.md``):

* ``KL-DET001`` — no wall-clock reads in sim/firmware code,
* ``KL-DET002`` — no module-level ``random.*`` (seeded ``random.Random``
  instances only),
* ``KL-DET003`` — no iteration over set-typed values (hash-order leaks),
* ``KL-CTX001`` — a ``TraceContext`` in scope must be threaded to every
  callee that accepts one,
* ``KL-LCK001`` — latch-style acquire/release pairing per function,
* ``KL-SIM001`` — sim processes (generators) must not do host I/O,
* ``KL-INV001`` — no ``assert`` guards (they vanish under ``python -O``),
* ``KL-FLT001`` — fault-injection code must not read mapping-table state,
* ``KL-OBS001`` — span names and ``component=`` tags must be registered.

Every rule looks at one module at a time, over a single parse of each
file.  Run via ``python -m repro.analysis_tools src/repro`` (human
output), ``--format github`` (workflow annotations) or ``--json`` for
machines; suppress a finding in place with a
``# kamllint: allow[RULE-ID] reason`` pragma — stale pragmas are
themselves reported.
"""

from repro.analysis_tools.core import (
    LintModule,
    LintReport,
    RULE_CATALOGUE,
    UnknownRuleError,
    Violation,
    clear_module_cache,
    load_modules,
    run_analysis,
    run_lint,
)

__all__ = [
    "LintModule",
    "LintReport",
    "RULE_CATALOGUE",
    "UnknownRuleError",
    "Violation",
    "clear_module_cache",
    "load_modules",
    "run_analysis",
    "run_lint",
]
