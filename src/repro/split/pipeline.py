"""Pipelining via split (Section 3.3.2).

"To pipeline a loop with split, first the descriptor for one iteration of
the loop is computed.  If the induction variable is i, D_{i-1}, the
descriptor for iteration i-1, is computed.  Then the loop body is split
using D_{i-1}; the resulting independent computation does not interfere
with iteration i-1.  As iteration i is computed, the next iteration's
independent computation can be executed concurrently.  ...  If deeper
pipelining is desired, the descriptor for iteration i-2 can be computed,
etc."

Iteration-local temporaries (blocks fully defined before use within one
iteration — exactly those absent from the iteration descriptor's read set)
are privatised: the runtime gives each iteration its own instance, so they
impose no cross-iteration dependence.  This matches the paper's Figure 3,
where ``result`` becomes the per-iteration ``result1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..analysis.symbolic import SymExpr, SymRange, expr_from_ast
from ..descriptors import Descriptor
from ..lang import ast
from .context import SplitContext
from .heuristics import ReadLinkedHeuristic
from .transform import SplitReport, SplitResult, split_computation


@dataclass
class PipelineResult:
    """The pipelined decomposition of one loop.

    Per iteration ``i`` of the original loop:

    * ``independent`` (A_I) may start as soon as iteration ``i``'s *inputs*
      exist — concurrently with iterations ``i-1 .. i-depth``;
    * ``dependent`` (A_D) must wait for those previous iterations;
    * ``merge`` (A_M) combines the two and performs the displaced writes.

    The first ``depth`` iterations have no ``depth`` earlier ones to
    overlap: they run the loop body itself.  Each iteration has its own
    copy of the ``privatized`` blocks.
    """

    loop: ast.DoLoop
    depth: int
    independent: List[ast.Stmt]
    dependent: List[ast.Stmt]
    merge: List[ast.Stmt]
    privatized: List[str]
    prev_descriptor: Descriptor
    context: SplitContext
    report: SplitReport

    @property
    def succeeded(self) -> bool:
        return bool(self.independent)


def pipeline_loop(
    loop: ast.DoLoop,
    unit: ast.Unit,
    depth: int = 1,
    context: Optional[SplitContext] = None,
    heuristic: Optional[ReadLinkedHeuristic] = None,
    explicit_merge: bool = True,
) -> PipelineResult:
    """Pipeline ``loop`` by splitting its body against iterations
    ``i-1 .. i-depth``."""
    if depth < 1:
        raise ValueError("pipeline depth must be at least 1")
    if context is None:
        context = SplitContext(unit)
    fragment = context.builder_for([loop])
    root = fragment.body[0]
    iteration = fragment.builder.of_iteration(root)

    # Privatise iteration-local temporaries: written but not live-on-entry,
    # at the same locations in every iteration.
    var = loop.var
    varying = {
        t.block
        for t in fragment.builder.region(root.body).writes
        if t.approximate or t.mentions(var)
    }
    privatized = sorted(
        iteration.blocks_written() - iteration.blocks_read() - varying
    )
    carried = Descriptor(
        reads=tuple(t for t in iteration.reads if t.block not in privatized),
        writes=tuple(t for t in iteration.writes if t.block not in privatized),
    )

    prev = Descriptor()
    for k in range(1, depth + 1):
        shifted = carried.substitute({var: SymExpr.var(var) - k})
        prev = prev.union(shifted)

    # The stages run from iteration lo + depth on.
    ranges = {}
    if len(loop.ranges) == 1 and loop.ranges[0].step is None:
        lo = expr_from_ast(loop.ranges[0].lo)
        hi = expr_from_ast(loop.ranges[0].hi)
        if lo is not None and hi is not None:
            ranges[var] = SymRange(lo + depth, hi)
    declared = len(context.decls)
    inner = split_computation(
        loop.body,
        prev,
        unit,
        context=context,
        heuristic=heuristic,
        explicit_merge=explicit_merge,
        ranges=ranges,
    )
    return PipelineResult(
        loop=loop,
        depth=depth,
        independent=inner.independent,
        dependent=inner.dependent,
        merge=inner.merge,
        # The split's replicas are per iteration too.
        privatized=privatized + [d.name for d in context.decls[declared:]],
        prev_descriptor=prev,
        context=context,
        report=inner.report,
    )
