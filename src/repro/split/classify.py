"""Interference classification of primitive computations (Section 3.3.1).

Implements the paper's algorithm verbatim::

    Bound = MaybeFree = {}
    for each c in C
        if interfere(c, D)  Bound += {c}
        else                MaybeFree += {c}
    Linked = transitive_interfere(MaybeFree, Bound)
    Free = MaybeFree

with ``transitive_interfere`` as the fixpoint that repeatedly moves members
of the candidate set that interfere with the growing frontier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, FrozenSet, List, Sequence

from ..descriptors import Descriptor, flow_interfere, interfere
from .primitives import Primitive

NO_FACTS: FrozenSet[frozenset] = frozenset()


@dataclass
class Classification:
    """The three memory-usage categories of Section 3.3.1."""

    bound: List[Primitive] = field(default_factory=list)
    linked: List[Primitive] = field(default_factory=list)
    free: List[Primitive] = field(default_factory=list)


def classify(
    primitives: Sequence[Primitive],
    target: Descriptor,
    distinct_pairs: FrozenSet[frozenset] = NO_FACTS,
) -> Classification:
    """Assign each primitive to Bound, Linked, or Free w.r.t. ``target``."""
    bound: List[Primitive] = []
    maybe_free: List[Primitive] = []
    for primitive in primitives:
        if interfere(primitive.descriptor, target, distinct_pairs):
            bound.append(primitive)
        else:
            maybe_free.append(primitive)
    linked = transitive_interfere(maybe_free, bound, distinct_pairs)
    return Classification(bound=bound, linked=linked, free=maybe_free)


def transitive_interfere(
    initial: List[Primitive],
    target: Sequence[Primitive],
    distinct_pairs: FrozenSet[frozenset] = NO_FACTS,
) -> List[Primitive]:
    """The paper's ``transitive_interfere`` fixpoint.

    Returns the members of ``initial`` that transitively interfere with
    ``target`` *using* ``initial`` as intermediaries, and removes them from
    ``initial`` (mutating it, exactly like the pseudocode).
    """
    return _transitive(
        initial,
        target,
        lambda c, t: interfere(c.descriptor, t.descriptor, distinct_pairs),
    )


def transitive_flow_up(
    initial: List[Primitive],
    target: Sequence[Primitive],
    distinct_pairs: FrozenSet[frozenset] = NO_FACTS,
) -> List[Primitive]:
    """Members of ``initial`` with a transitive flow interference *from*
    ``target`` (they consume values the target produces).  Mutates
    ``initial`` like the paper's pseudocode.

    Flow is directional in *program order*: a write that happens after a
    read is an anti-dependence, not a flow, so only earlier producers
    count.
    """
    return _transitive(
        initial,
        target,
        lambda c, t: t.index < c.index
        and flow_interfere(t.descriptor, c.descriptor, distinct_pairs),
    )


def transitive_flow_down(
    initial: List[Primitive],
    target: Sequence[Primitive],
    distinct_pairs: FrozenSet[frozenset] = NO_FACTS,
) -> List[Primitive]:
    """Members of ``initial`` from which ``target`` has a transitive flow
    interference (they produce values the target consumes).  Mutates
    ``initial``.  Program-order directional, like
    :func:`transitive_flow_up`."""
    return _transitive(
        initial,
        target,
        lambda c, t: c.index < t.index
        and flow_interfere(c.descriptor, t.descriptor, distinct_pairs),
    )


def _transitive(
    initial: List[Primitive],
    target: Sequence[Primitive],
    related: Callable[[Primitive, Primitive], bool],
) -> List[Primitive]:
    result: List[Primitive] = []
    test_set: List[Primitive] = list(target)
    while test_set:
        new_members: List[Primitive] = []
        for candidate in list(initial):
            if any(related(candidate, t) for t in test_set):
                initial.remove(candidate)
                result.append(candidate)
                new_members.append(candidate)
        test_set = new_members
    return result
