"""kamllint infrastructure: modules, violations, pragmas, rule registry.

One run parses each ``.py`` file once; every pass receives the same list
of parsed modules and looks at one module (one function) at a time.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

#: ``# kamllint: allow[KL-DET001]`` or ``allow[KL-DET001,KL-DET003] why``
_PRAGMA = re.compile(r"#\s*kamllint:\s*allow\[([A-Z0-9\-, ]+)\]")

#: Subpackages of ``repro`` whose code runs under the simulated clock.
#: Harness reporting is the only sanctioned wall-clock boundary, and the
#: linter itself is exempt (it is host tooling, not sim code).
TOOLING_SUBPACKAGES = {"analysis_tools"}

#: rule id -> one-line description.  The single source of truth for the
#: rule catalogue: the CLI lists it, ``--rules`` and pragma audits
#: validate against it, and docs/static-analysis.md mirrors it.
RULE_CATALOGUE: Dict[str, str] = {
    "KL-DET001": "no wall-clock reads outside harness.reporting.wallclock()",
    "KL-DET002": "no module-level random.*; inject seeded random.Random",
    "KL-DET003": "no iteration over set-typed values (hash-order leak)",
    "KL-SIM001": "sim processes (generators) must not call host I/O",
    "KL-INV001": "no assert guards; raise repro.errors.InvariantError",
    "KL-FLT001": "fault-injection code must not read mapping-table state",
}


class UnknownRuleError(ValueError):
    """A rule id that is not in :data:`RULE_CATALOGUE` was requested."""

    def __init__(self, unknown: Sequence[str]):
        self.unknown = sorted(unknown)
        super().__init__(
            "unknown rule ids: " + ", ".join(self.unknown)
            + " (see --list-rules for the catalogue)"
        )


@dataclass(frozen=True)
class Violation:
    """One finding: a rule id anchored to a file position."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass(frozen=True)
class PragmaSite:
    """One ``allow[...]`` grant: the pragma comment's line and a rule."""

    path: str
    line: int
    rule: str


@dataclass(frozen=True)
class StalePragma:
    """An ``allow[...]`` grant that suppressed nothing in this run."""

    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:0: stale-pragma {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }


@dataclass
class LintModule:
    """A parsed source file plus its pragma allowlist."""

    path: Path
    source: str
    tree: ast.Module
    #: line number -> rule ids allowed on that line (and the next one,
    #: so a pragma may sit on the line above a long statement)
    line_allows: Dict[int, Set[str]] = field(default_factory=dict)
    #: every pragma grant, for the stale-pragma audit
    pragma_sites: List[PragmaSite] = field(default_factory=list)

    @property
    def subpackage(self) -> Optional[str]:
        """The ``repro`` subpackage this file belongs to, if any."""
        parts = self.path.parts
        try:
            anchor = len(parts) - 1 - parts[::-1].index("repro")
        except ValueError:
            return None
        if anchor + 1 < len(parts) - 1:
            return parts[anchor + 1]
        return ""  # directly under repro/

    def allowing_site(self, rule: str, line: int) -> Optional[PragmaSite]:
        """The pragma grant that suppresses ``rule`` at ``line``, if any."""
        for pragma_line in (line, line - 1):
            if rule in self.line_allows.get(pragma_line, ()):
                return PragmaSite(str(self.path), pragma_line, rule)
        return None


def _parse_pragmas(module: LintModule) -> None:
    for lineno, text in enumerate(module.source.splitlines(), start=1):
        match = _PRAGMA.search(text)
        if match is None:
            continue
        rules = {rule.strip() for rule in match.group(1).split(",") if rule.strip()}
        module.line_allows.setdefault(lineno, set()).update(rules)
        for rule in sorted(rules):
            module.pragma_sites.append(PragmaSite(str(module.path), lineno, rule))


def _load_module(file_path: Path) -> LintModule:
    source = file_path.read_text()
    tree = ast.parse(source, filename=str(file_path))
    module = LintModule(path=file_path, source=source, tree=tree)
    _parse_pragmas(module)
    return module


def load_modules(paths: Sequence[str]) -> List[LintModule]:
    """Load every ``.py`` file under the given files/directories."""
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return [_load_module(file_path) for file_path in files]


#: A rule pass: takes every parsed module of the run and returns raw
#: findings; pragma filtering happens in :func:`run_analysis`.
RulePass = Callable[[Sequence[LintModule]], List[Violation]]

_PASSES: List[RulePass] = []


def register_pass(rule_pass: RulePass) -> RulePass:
    _PASSES.append(rule_pass)
    return rule_pass


@dataclass
class LintReport:
    """Everything one analysis run produced."""

    violations: List[Violation]
    stale_pragmas: List[StalePragma]
    module_count: int = 0


def _import_rule_modules() -> None:
    # Importing the rule modules registers their passes.
    from repro.analysis_tools import determinism, faultrules, simproc  # noqa: F401


def validate_rules(rules: Optional[Iterable[str]]) -> Optional[Set[str]]:
    """Normalize a rule filter; raise :class:`UnknownRuleError` on typos."""
    if rules is None:
        return None
    wanted = {rule for rule in rules if rule}
    unknown = [rule for rule in wanted if rule not in RULE_CATALOGUE]
    if unknown:
        raise UnknownRuleError(unknown)
    return wanted


def run_analysis(
    paths: Sequence[str], rules: Optional[Iterable[str]] = None
) -> LintReport:
    """Run every registered pass; returns findings plus the pragma audit.

    The stale-pragma audit reports ``allow[...]`` grants that suppressed
    nothing.  When a ``rules`` filter is active, only grants for the
    selected rules are audited (the others were never evaluated); grants
    naming a rule id missing from the catalogue are always stale.
    """
    _import_rule_modules()
    wanted = validate_rules(rules)
    modules = load_modules(paths)
    by_path = {str(module.path): module for module in modules}
    findings: List[Violation] = []
    used_sites: Set[PragmaSite] = set()
    for rule_pass in _PASSES:
        for violation in rule_pass(modules):
            if wanted is not None and violation.rule not in wanted:
                continue
            module = by_path.get(violation.path)
            if module is not None:
                site = module.allowing_site(violation.rule, violation.line)
                if site is not None:
                    used_sites.add(site)
                    continue
            findings.append(violation)
    findings.sort(key=lambda v: (v.path, v.line, v.col, v.rule))

    stale: List[StalePragma] = []
    for module in modules:
        if module.subpackage in TOOLING_SUBPACKAGES:
            continue  # the linter's own docs/regexes mention pragmas
        for site in module.pragma_sites:
            if site in used_sites:
                continue
            if site.rule not in RULE_CATALOGUE:
                reason = (
                    f"allow[{site.rule}] names a rule id that is not in the "
                    "catalogue; fix the id or drop the pragma"
                )
            elif wanted is not None and site.rule not in wanted:
                continue  # not evaluated under this --rules filter
            else:
                reason = (
                    f"allow[{site.rule}] suppresses nothing; the violation it "
                    "covered is gone — drop the pragma"
                )
            stale.append(StalePragma(site.path, site.line, site.rule, reason))
    stale.sort(key=lambda s: (s.path, s.line, s.rule))
    return LintReport(
        violations=findings, stale_pragmas=stale, module_count=len(modules)
    )


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute/name chains; None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
