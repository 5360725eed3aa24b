"""Interference predicates over descriptors (Sections 3.2–3.3).

Thin, well-named wrappers over the descriptor machinery, matching the
paper's vocabulary:

* :func:`interfere` — output/flow/anti dependency between two summaries,
* :func:`flow_interfere` — directed flow dependency (writes of the first
  meet reads of the second),
* :func:`interfere_with_set` / :func:`transitive_interfere` style helpers
  live in :mod:`repro.split.classify`, which owns the fixpoint algorithms.
"""

from __future__ import annotations

from typing import FrozenSet

from .descriptor import (
    Descriptor,
    descriptor_flow_interferes,
    descriptors_interfere,
)

NO_FACTS: FrozenSet[frozenset] = frozenset()


def interfere(
    a: Descriptor, b: Descriptor, distinct_pairs: FrozenSet[frozenset] = NO_FACTS
) -> bool:
    """True unless the two descriptors are provably independent.

    Captures all three dependency kinds:
    output (W∩W), flow (W∩R), and anti (R∩W).
    """
    return descriptors_interfere(a, b, distinct_pairs)


def flow_interfere(
    pred: Descriptor,
    succ: Descriptor,
    distinct_pairs: FrozenSet[frozenset] = NO_FACTS,
) -> bool:
    """True when ``succ`` may read something ``pred`` writes.

    Not symmetric — this is the paper's flow interference used to
    subdivide Linked computations.
    """
    return descriptor_flow_interferes(pred, succ, distinct_pairs)

