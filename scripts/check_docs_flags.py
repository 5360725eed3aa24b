#!/usr/bin/env python
"""Docs-vs-CLI consistency check: every ``--flag`` the docs mention must
exist in the argparse surface.

Run from the repository root (CI runs it as a tier-1 step via
``tests/docs/test_docs_consistency.py``)::

    PYTHONPATH=src python scripts/check_docs_flags.py

Scope: ``README.md`` and ``EXPERIMENTS.md`` against
``repro.__main__.build_parser()`` (all subcommands).  One direction
only: the flag reference is ``python -m repro CMD --help``, generated
from the same declarations as the parser, so a flag cannot ship
undocumented; prose naming a renamed/removed flag still can drift.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "EXPERIMENTS.md")

#: ``--flag`` tokens, excluding ``--`` separators and mid-word matches
#: (``chrome://tracing``), including flags inside code spans.
FLAG_RE = re.compile(r"(?<![\w/-])--([a-z][a-z0-9-]*)\b")

#: Doc-side tokens that are not repro CLI flags: pytest/pip/git flags
#: quoted in setup instructions.  Keep this list short — every entry is
#: a hole in the check.
FOREIGN_FLAGS = {
    "tb",  # pytest --tb=short in the testing section
}


def doc_flags() -> dict:
    """Flag name -> list of "file:line" locations across the doc set."""
    found: dict = {}
    for name in DOCS:
        path = REPO_ROOT / name
        for line_number, line in enumerate(
            path.read_text().splitlines(), start=1
        ):
            for match in FLAG_RE.finditer(line):
                flag = match.group(1)
                found.setdefault(flag, []).append(f"{name}:{line_number}")
    return found


def parser_flags() -> set:
    """Every long option string the CLI accepts, across all subcommands."""
    from repro.__main__ import build_parser

    flags = set()

    def collect(parser: argparse.ArgumentParser) -> None:
        for action in parser._actions:
            for option in action.option_strings:
                if option.startswith("--"):
                    flags.add(option[2:])
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    collect(sub)

    collect(build_parser())
    return flags


def main() -> int:
    documented = doc_flags()
    implemented = parser_flags()

    problems = []
    for flag, locations in sorted(documented.items()):
        if flag in FOREIGN_FLAGS or flag in implemented:
            continue
        problems.append(
            f"documented but not implemented: --{flag} "
            f"({', '.join(locations[:3])})"
        )

    if problems:
        print(f"docs/CLI flag drift ({len(problems)} problem(s)):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(
        f"docs/CLI flags consistent: {len(documented)} documented, "
        f"{len(implemented)} implemented"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
