"""Every documented ``python -m repro.harness …`` invocation still parses.

Some of these commands run only on a schedule (the nightly paper-scale
workflow) or only when a reader copies them out of a doc, so a change
that renames a subcommand or drops a flag would break them with no
signal on the pull request.  This test collects each invocation from the
Makefile, the workflows, the README, ``docs/*.md`` and the verify skill,
and parses it with the harness's own parsers.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from repro.harness.__main__ import COMMANDS, EXPERIMENTS, command_parser, figures_parser

ROOT = Path(__file__).resolve().parents[2]
SOURCES = (
    "Makefile",
    ".github/workflows/*.yml",
    "README.md",
    "docs/*.md",
    ".claude/skills/verify/SKILL.md",
)
INVOCATION = re.compile(r"(?:python3?|\$\(PYTHON\)) -m repro\.harness\b")
#: ``${{ matrix.shards }}`` (workflow expressions), ``$(VAR)`` (make
#: variables) and ``<journal>`` (a doc's metavariable) stand for a value
#: the test cannot know; any one value parses.
PLACEHOLDER = re.compile(r"\$\{\{.*?\}\}|\$\([^)]*\)|<[\w-]+>")


def _rest_of_command(text, start):
    """The argument text of the invocation whose arguments begin at
    ``start``: up to the closing backtick or quote of an inline mention,
    or else to the end of the shell line, ``\\`` continuations joined."""
    line_start = text.rfind("\n", 0, start) + 1
    prefix = text[line_start:start]
    for delimiter in ("`", "'"):
        if prefix.count(delimiter) % 2:
            end = text.find(delimiter, start)
            return text[start:end].replace("\n", " ")
    parts = []
    while True:
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        line = text[start:end]
        if not line.endswith("\\"):
            parts.append(line)
            return " ".join(parts)
        parts.append(line[:-1])
        start = end + 1


def _arguments(command):
    """Shell words of ``command`` up to the first operator (``|``, ``>``,
    ``;``, ``&&``) or comment."""
    lexer = shlex.shlex(PLACEHOLDER.sub("1", command), posix=True, punctuation_chars=True)
    lexer.whitespace_split = True
    words = []
    for word in lexer:
        if set(word) <= set("|&;<>()"):
            break
        words.append(word)
    return words


def collect():
    found = []
    for pattern in SOURCES:
        for path in sorted(ROOT.glob(pattern)):
            text = path.read_text()
            for match in INVOCATION.finditer(text):
                line = text.count("\n", 0, match.start()) + 1
                where = f"{path.relative_to(ROOT)}:{line}"
                found.append((where, _arguments(_rest_of_command(text, match.end()))))
    return found


INVOCATIONS = collect()


def test_the_collector_finds_the_ci_and_make_invocations():
    places = {where.split(":")[0] for where, _argv in INVOCATIONS}
    assert {
        "Makefile", ".github/workflows/ci.yml", ".github/workflows/paper-scale.yml",
        "README.md",
    } <= places
    subcommands = {argv[0] for _where, argv in INVOCATIONS if argv}
    assert set(COMMANDS) <= subcommands


def _problem(argv):
    """Why ``repro.harness <argv>`` would not run as written, or None."""
    refusal = io.StringIO()
    try:
        with contextlib.redirect_stderr(refusal):
            if argv and argv[0] in COMMANDS:
                command_parser(argv[0]).parse_args(argv[1:])
                return None
            args = figures_parser().parse_args(argv)
    except SystemExit:
        return refusal.getvalue().strip().splitlines()[-1]
    unknown = [name for name in args.figures if name != "all" and name not in EXPERIMENTS]
    if unknown:
        return f"{unknown} names neither a subcommand nor an experiment"
    return None


def test_every_documented_invocation_parses():
    problems = [
        f"{where}: repro.harness {' '.join(argv)}\n    {problem}"
        for where, argv in INVOCATIONS
        if (problem := _problem(argv)) is not None
    ]
    if problems:
        pytest.fail("\n".join(problems), pytrace=False)
