"""Docs drift gates: the flag checker runs clean, and the docs' load-
bearing cross-references point at files that exist."""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_docs_flags_check_passes():
    """`scripts/check_docs_flags.py` exits 0: every ``--flag`` in
    README/EXPERIMENTS exists in argparse."""
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "check_docs_flags.py")],
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, (
        f"docs/CLI flag drift:\n{proc.stdout}{proc.stderr}"
    )
    assert "consistent" in proc.stdout


def test_readme_links_architecture_doc():
    readme = (REPO_ROOT / "README.md").read_text()
    assert "docs/ARCHITECTURE.md" in readme
    assert (REPO_ROOT / "docs" / "ARCHITECTURE.md").is_file()


def test_docs_referenced_paths_exist():
    """Every repo-relative file path the docs name in backticks exists —
    a renamed module or benchmark must update its documentation."""
    import re

    pattern = re.compile(
        r"`((?:src|tests|benchmarks|docs|scripts|examples)/[\w/.\-]+\.\w+)`"
    )
    for name in ("README.md", "EXPERIMENTS.md", "DESIGN.md",
                 "docs/ARCHITECTURE.md"):
        text = (REPO_ROOT / name).read_text()
        for match in pattern.finditer(text):
            assert (REPO_ROOT / match.group(1)).exists(), (
                f"{name} references {match.group(1)}, which does not exist"
            )
