"""``kamllint``: determinism and sim-hygiene static analysis for the KAML stack.

An AST-based lint pass over ``src/repro`` for the invariants no other
gate checks (see ``docs/static-analysis.md``, whose rule ledger records
why each rule is kept):

* ``KL-DET001`` — no wall-clock reads in sim/firmware code,
* ``KL-DET002`` — no module-level ``random.*`` (seeded ``random.Random``
  instances only),
* ``KL-DET003`` — no iteration over set-typed values (hash-order leaks),
* ``KL-SIM001`` — sim processes (generators) must not do host I/O,
* ``KL-INV001`` — no ``assert`` guards (they vanish under ``python -O``),
* ``KL-FLT001`` — fault-injection code must not read mapping-table state.

Every rule looks at one module at a time, over a single parse of each
file.  Run via ``python -m repro.analysis_tools src/repro`` (human
output), ``--format github`` (workflow annotations) or ``--format json``
for machines; suppress a finding in place with a
``# kamllint: allow[RULE-ID] reason`` pragma — stale pragmas are
themselves reported.
"""

from repro.analysis_tools.core import (
    LintReport,
    RULE_CATALOGUE,
    UnknownRuleError,
    Violation,
    run_analysis,
)

__all__ = ["LintReport", "RULE_CATALOGUE", "UnknownRuleError", "Violation", "run_analysis"]
