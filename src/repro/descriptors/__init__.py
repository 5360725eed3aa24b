"""Symbolic data descriptors (Section 3.2 of the paper).

The public surface:

* :class:`Descriptor` / :class:`AccessTriple` / :class:`DimPattern` /
  :class:`Mask` — the ``<G> B[P]`` representation,
* :class:`DescriptorBuilder` — builds descriptors for statement regions,
  whole loops, and single iterations of an analysed unit,
* :func:`interfere` / :func:`flow_interfere` — the dependency tests,
* :func:`loop_iterations_independent` — the paper's iteration test.
"""

from .descriptor import (
    Descriptor,
    DescriptorBuilder,
    EMPTY_DESCRIPTOR,
    descriptor_flow_interferes,
    descriptors_interfere,
    loop_iterations_independent,
)
from .guards import (
    AffinePred,
    Guard,
    MaskPred,
    OpaquePred,
    TRUE_GUARD,
    guard_from_condition,
    guards_contradict,
)
from .interference import flow_interfere, interfere
from .pattern import DimPattern, Mask, dim_covers, dims_disjoint, pattern_covers
from .triple import AccessTriple, triple_covered_by, triples_disjoint

__all__ = [
    "Descriptor",
    "DescriptorBuilder",
    "EMPTY_DESCRIPTOR",
    "AccessTriple",
    "DimPattern",
    "Mask",
    "Guard",
    "MaskPred",
    "AffinePred",
    "OpaquePred",
    "TRUE_GUARD",
    "guard_from_condition",
    "guards_contradict",
    "interfere",
    "flow_interfere",
    "descriptors_interfere",
    "descriptor_flow_interferes",
    "loop_iterations_independent",
    "triples_disjoint",
    "triple_covered_by",
    "dims_disjoint",
    "dim_covers",
    "pattern_covers",
]
