"""kamllint infrastructure: modules, violations, pragmas, rule registry.

Parsing is cached: every ``.py`` file is ``ast.parse``d at most once per
interpreter process (keyed by path + mtime + size), so the whole rule
suite — and repeated ``run_lint`` calls from tests or pre-commit — share
one tree per file.  Every pass receives the same list of parsed modules
and looks at one module (one function) at a time.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: ``# kamllint: allow[KL-DET001]`` or ``allow[KL-DET001,KL-DET002] why``
_PRAGMA = re.compile(r"#\s*kamllint:\s*(file-)?allow\[([A-Z0-9\-, ]+)\]")

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
    "KL-CTX001": "a held TraceContext must be passed to ctx-accepting callees",
    "KL-LCK001": "latch-style locks release in the acquiring function",
    "KL-SIM001": "sim processes (generators) must not call host I/O",
    "KL-INV001": "no assert guards; raise repro.errors.InvariantError",
    "KL-FLT001": "fault-injection code must not read mapping-table state",
    "KL-OBS001": "span names and component= tags must be in the kamlprof taxonomy",
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
    """One ``allow[...]`` grant: a (line, rule) pair in one file.

    ``line`` is the pragma comment's own line; 0 for ``file-allow``.
    """

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
    file_allows: Set[str] = field(default_factory=set)
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

    def allowed(self, rule: str, line: int) -> bool:
        return self.allowing_site(rule, line) is not None

    def allowing_site(self, rule: str, line: int) -> Optional[PragmaSite]:
        """The pragma grant that suppresses ``rule`` at ``line``, if any."""
        if rule in self.file_allows:
            return PragmaSite(str(self.path), 0, rule)
        for pragma_line in (line, line - 1):
            if rule in self.line_allows.get(pragma_line, ()):  # noqa: B007
                return PragmaSite(str(self.path), pragma_line, rule)
        return None


def _parse_pragmas(module: LintModule) -> None:
    for lineno, text in enumerate(module.source.splitlines(), start=1):
        match = _PRAGMA.search(text)
        if match is None:
            continue
        rules = {rule.strip() for rule in match.group(2).split(",") if rule.strip()}
        if match.group(1):  # file-allow
            module.file_allows.update(rules)
            site_line = 0
        else:
            module.line_allows.setdefault(lineno, set()).update(rules)
            site_line = lineno
        for rule in sorted(rules):
            module.pragma_sites.append(PragmaSite(str(module.path), site_line, rule))


# ----------------------------------------------------------------------
# Single-parse AST cache
# ----------------------------------------------------------------------

#: resolved path -> (mtime_ns, size, LintModule).  One ``ast.parse`` per
#: distinct file contents per process, shared by every pass and every
#: ``run_lint`` call; an edited file re-parses because its stat changes.
_MODULE_CACHE: Dict[str, Tuple[int, int, LintModule]] = {}

#: resolved path -> number of actual ``ast.parse`` calls, for tests that
#: assert the single-parse property.
PARSE_COUNTS: Dict[str, int] = {}


def clear_module_cache() -> None:
    """Drop the AST cache (tests use this to measure parse counts)."""
    _MODULE_CACHE.clear()
    PARSE_COUNTS.clear()


def _load_module(file_path: Path) -> LintModule:
    key = str(file_path.resolve())
    stat = file_path.stat()
    cached = _MODULE_CACHE.get(key)
    if cached is not None and cached[0] == stat.st_mtime_ns and cached[1] == stat.st_size:
        return cached[2]
    source = file_path.read_text()
    tree = ast.parse(source, filename=str(file_path))
    PARSE_COUNTS[key] = PARSE_COUNTS.get(key, 0) + 1
    module = LintModule(path=file_path, source=source, tree=tree)
    _parse_pragmas(module)
    _MODULE_CACHE[key] = (stat.st_mtime_ns, stat.st_size, module)
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
    from repro.analysis_tools import (  # noqa: F401
        ctxlint,
        determinism,
        faultrules,
        locks,
        obsrules,
        simproc,
    )


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


def run_lint(
    paths: Sequence[str], rules: Optional[Iterable[str]] = None
) -> List[Violation]:
    """Back-compat wrapper: pragma-filtered findings only."""
    return run_analysis(paths, rules=rules).violations


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


def receiver_text(node: ast.AST) -> Optional[str]:
    """The receiver of ``recv.method(...)``: dotted text of ``recv``.

    Subscripts collapse to their base (``self.logs[i]`` -> ``self.logs``)
    so lock/ctx sites stay stable across index expressions.
    """
    if isinstance(node, ast.Subscript):
        node = node.value
    return dotted_name(node)


class TryThenWait:
    """Folds the zero-event acquisition idiom into one acquisition.

    The simulator grants an idle lock or reservation without an event
    when it can; callers spell the contended fallback right behind it::

        if not lock.try_acquire(owner):
            yield lock.acquire(owner)

        handle = nvram.try_reserve(n)
        if handle is None:
            handle = yield nvram.reserve(n)

    ``try_<verb>`` is the acquisition.  The plain ``<verb>`` that follows
    it on the same receiver (before any release) is the same acquisition
    waiting, not a second one; a plain ``<verb>`` on its own still counts.
    Feed calls in source order.
    """

    def __init__(self, verb: str):
        self.verb = verb
        self.try_verb = "try_" + verb
        self._tried: Set[str] = set()

    def acquires(self, method: str, receiver: str) -> Optional[bool]:
        """True: an acquisition; False: the fallback of the ``try_`` just
        seen (count nothing); None: not this verb at all."""
        if method == self.try_verb:
            self._tried.add(receiver)
            return True
        if method == self.verb:
            if receiver in self._tried:
                self._tried.discard(receiver)
                return False
            return True
        return None

    def released(self, receiver: str) -> None:
        self._tried.discard(receiver)


def iter_functions(tree: ast.Module):
    """Yield ``(class_name_or_None, FunctionDef)`` for every function."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield None, node
        elif isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, child


def walk_own(func: ast.AST):
    """Walk a function's own body, not descending into nested defs."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def method_calls(func: ast.AST) -> List[ast.Call]:
    """The ``recv.method(...)`` calls of a function's own body, in source
    order (the order KL-LCK001's stateful walk needs)."""
    calls = [
        node for node in walk_own(func)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    ]
    calls.sort(key=lambda node: (node.lineno, node.col_offset))
    return calls


def is_generator(func: ast.FunctionDef) -> bool:
    """Does this function yield (ignoring nested defs/lambdas)?"""
    return any(
        isinstance(node, (ast.Yield, ast.YieldFrom)) for node in walk_own(func)
    )
