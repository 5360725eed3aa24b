"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures (see
DESIGN.md's per-experiment index), printing the same rows/series the paper
reports and asserting the expected *shape* (who wins, by roughly what
factor) rather than absolute numbers.

Each table is also dumped as machine-readable JSON —
``BENCH_<name>.json`` under :data:`RESULTS_DIR` (override with the
``REPRO_BENCH_DIR`` environment variable, default the repository
root) — so two runs can be diffed instead of scraping stdout.  The
paper-figure tables committed there are the reproduction's record; the
perf trajectory of the real backends is the measurement spine's
(``benchmarks/spine/``), not a pile of root JSON files.
"""

from __future__ import annotations

import json
import os

RESULTS_DIR = os.environ.get(
    "REPRO_BENCH_DIR",
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
)


def dump_rows(name: str, header: list, rows: list, title: str = "") -> str:
    """Write one benchmark's rows to ``BENCH_<name>.json``; returns the path."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"BENCH_{name}.json")
    payload = {
        "name": name,
        "title": title,
        "header": [str(column) for column in header],
        "rows": [[cell for cell in row] for row in rows],
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, default=str)
        handle.write("\n")
    return path


def print_table(title: str, header: list, rows: list, name: str = "") -> None:
    """Render a result table to stdout (visible with pytest -s).

    With ``name``, the rows are also dumped to ``BENCH_<name>.json`` via
    :func:`dump_rows`.
    """
    print()
    print(title)
    widths = [
        max(len(str(header[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(header))
    ]
    line = " | ".join(str(h).rjust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print(" | ".join(str(c).rjust(w) for c, w in zip(row, widths)))
    print()
    if name:
        dump_rows(name, header, rows, title=title)
