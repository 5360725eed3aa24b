"""Block statistics that hold still on a shared machine.

A measured window is cut into blocks (ten); a metric is computed per
block (a rate, or a percentile of the block's latencies); the
inter-quartile range over blocks is reported as its spread, and the
value is the **best block**: the lowest time, the highest rate.

The median over blocks was the first choice and did not repeat.  On
this VM a neighbour slows everything by a third, at times by half, for
tens of seconds at a stretch, which is most of a window, and such
interference only ever slows a block.  Over two sets of ten runs of
``serve_small`` the inter-quartile spread of the closed-loop rate was
22 % and 38 % with the median over blocks, 12 % and 25 % with the best
quartile, 13 % and 15 % with the best block.  It is ``timeit``'s
argument for the minimum, one level up: within a block the statistic is
still a median over some fifty operations.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import List, Sequence, TypeVar

BLOCKS = 10

T = TypeVar("T")


@dataclass
class Reading:
    value: float
    spread: float = 0.0
    samples: int = 0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; ``q`` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def best_block(per_block: Sequence[float], better: str, samples: int) -> Reading:
    """The best block's statistic, and the IQR over blocks."""
    if not per_block:
        raise ValueError("no samples in the measured window")
    spread = 0.0
    if len(per_block) > 1:
        low, _, high = statistics.quantiles(per_block, n=4, method="inclusive")
        spread = high - low
    best = max(per_block) if better == "higher" else min(per_block)
    return Reading(best, spread, samples)


def split(items: Sequence[T], parts: int = BLOCKS) -> List[List[T]]:
    """Consecutive groups of near-equal size (fewer when items run out)."""
    parts = max(1, min(parts, len(items)))
    edges = [round(k * len(items) / parts) for k in range(parts + 1)]
    return [list(items[edges[k] : edges[k + 1]]) for k in range(parts)]
