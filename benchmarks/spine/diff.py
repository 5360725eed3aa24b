"""``diff A.json B.json``: one row per end-to-end metric and workload.

``A`` is the base.  The verdict is ``unresolved`` when either record's
own spread (the inter-quartile range over its blocks) is wider than the
metric's bound: a change that small cannot be told from noise.
Otherwise ``worse`` or ``better`` when the median moved by more than
the bound, else ``within``.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List


def verdict(
    base: Dict[str, float], new: Dict[str, float], better: str, bound: float
) -> str:
    if not base["value"]:
        return "unresolved"
    noise = max(base["spread"], new["spread"]) / abs(base["value"])
    if noise > bound:
        return "unresolved"
    change = (new["value"] - base["value"]) / abs(base["value"])
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within"


def main(argv: List[str], spec: Dict[str, object]) -> int:
    if len(argv) != 2:
        print("usage: diff BASE.json NEW.json", file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path) as handle:
            records.append(json.load(handle))
    base, new = records
    for label, record in zip(("base", "new"), records):
        env = record["env"]
        print(
            f"{label}: commit {str(env['commit'])[:12]} dirty={env['dirty']} "
            f"nproc={env['nproc']} seed={env['seed']} {env['utc']}"
        )
    header = f"{'workload':<14} {'metric':<24} {'base':>12} {'new':>12} {'ratio':>7} {'bound':>6}  verdict"
    print(header)
    print("-" * len(header))
    worse = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in base["workloads"] or name not in new["workloads"]:
            continue
        for metric in spec["end_to_end"]:
            old = base["workloads"][name]["end_to_end"][metric["name"]]
            cur = new["workloads"][name]["end_to_end"][metric["name"]]
            outcome = verdict(old, cur, metric["better"], metric["bound"])
            worse += outcome == "worse"
            ratio = cur["value"] / old["value"] if old["value"] else float("nan")
            print(
                f"{name:<14} {metric['name']:<24} {old['value']:>12.5g} "
                f"{cur['value']:>12.5g} {ratio:>7.3f} {metric['bound']:>6.2f}  {outcome}"
            )
        # Not a bounded metric (it reads 0 at HEAD): any rise is worse.
        old_share = base["workloads"][name]["failed_share"]
        new_share = new["workloads"][name]["failed_share"]
        outcome = (
            "worse" if new_share > old_share
            else "better" if new_share < old_share
            else "within"
        )
        worse += outcome == "worse"
        print(
            f"{name:<14} {'failed_share':<24} {old_share:>12.5g} "
            f"{new_share:>12.5g} {'':>7} {'any':>6}  {outcome}"
        )
    return 1 if worse else 0
