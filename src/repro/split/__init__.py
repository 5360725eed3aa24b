"""The split transformation (Section 3.3 of the paper).

* :func:`split_computation` — C × D → (C_I, C_D, C_M),
* :func:`pipeline_loop` — pipelining via split against iteration i-1,
* :func:`classify` / :func:`subdivide_linked` — the Bound/Linked/Free and
  NeedsBound/GenerateLinked/ReadLinked categorisations,
* :func:`try_split_loop` — loop iteration splitting,
* :class:`ReadLinkedHeuristic` — the movement heuristic.
"""

from .classify import (
    Classification,
    classify,
    transitive_flow_down,
    transitive_flow_up,
    transitive_interfere,
)
from .context import SplitContext, clone_stmts
from .heuristics import ReadLinkedHeuristic, estimated_weight, static_op_count
from .linked import LinkedSubdivision, subdivide_linked, suppliers_of
from .loop_split import (
    LoopSplit,
    MaskCandidate,
    MultiPointCandidate,
    PointCandidate,
    find_reductions,
    restriction_candidates,
    symexpr_to_ast,
    try_split_loop,
)
from .pipeline import PipelineResult, pipeline_loop
from .primitives import BLOCK, CALL, COND, LOOP, Primitive, decompose
from .transform import SplitReport, SplitResult, split_computation

__all__ = [
    "split_computation",
    "SplitResult",
    "SplitReport",
    "pipeline_loop",
    "PipelineResult",
    "classify",
    "Classification",
    "transitive_interfere",
    "transitive_flow_up",
    "transitive_flow_down",
    "subdivide_linked",
    "LinkedSubdivision",
    "suppliers_of",
    "try_split_loop",
    "LoopSplit",
    "find_reductions",
    "restriction_candidates",
    "PointCandidate",
    "MaskCandidate",
    "MultiPointCandidate",
    "symexpr_to_ast",
    "decompose",
    "Primitive",
    "BLOCK",
    "LOOP",
    "CALL",
    "COND",
    "SplitContext",
    "clone_stmts",
    "ReadLinkedHeuristic",
    "static_op_count",
    "estimated_weight",
]
