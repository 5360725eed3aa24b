"""The split transformation driver (Section 3.3.1).

``split_computation(C, D)`` converts a computation ``C`` into three
computations:

* ``C_I`` — sub-computations that provably do not interfere with the
  computation summarised by descriptor ``D`` (they may run concurrently
  with it),
* ``C_D`` — the rest of ``C``, except sub-computations that rely on values
  now computed in ``C_I``,
* ``C_M`` — the merge: replicated-accumulator reductions, explicit array
  merges, and any displaced post-processing code.

The driver composes the pieces implemented in the sibling modules:
decomposition into primitives, Bound/Linked/Free classification, loop
iteration splitting, the Linked subdivision, and the ReadLinked movement
heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.symbolic import SymRange
from ..descriptors import Descriptor, interfere
from ..lang import ast
from .classify import Classification, classify
from .context import SplitContext, clone_stmts
from .heuristics import ReadLinkedHeuristic
from .linked import LinkedSubdivision, subdivide_linked, suppliers_of
from .loop_split import LoopSplit, try_split_loop
from .primitives import LOOP, Primitive, decompose


@dataclass
class SplitReport:
    """Diagnostics: what the transformation did and why."""

    classification: Optional[Classification] = None
    linked_subdivision: Optional[LinkedSubdivision] = None
    loop_splits: List[Tuple[Primitive, LoopSplit]] = field(default_factory=list)
    moved_read_linked: List[Primitive] = field(default_factory=list)
    replicated: List[Primitive] = field(default_factory=list)
    displaced_to_merge: List[Primitive] = field(default_factory=list)

    def summary(self) -> str:
        lines = []
        if self.classification is not None:
            lines.append(
                "bound=%d linked=%d free=%d"
                % (
                    len(self.classification.bound),
                    len(self.classification.linked),
                    len(self.classification.free),
                )
            )
        for primitive, loop_split in self.loop_splits:
            lines.append(
                f"split loop primitive {primitive.index} on "
                f"{loop_split.level_var}: {loop_split.restriction}"
            )
        if self.moved_read_linked:
            lines.append(
                "moved ReadLinked: "
                + ", ".join(str(p.index) for p in self.moved_read_linked)
            )
        if self.displaced_to_merge:
            lines.append(
                "displaced to merge: "
                + ", ".join(str(p.index) for p in self.displaced_to_merge)
            )
        return "\n".join(lines)


@dataclass
class SplitResult:
    """The three output computations, in executable order."""

    independent: List[ast.Stmt]
    dependent: List[ast.Stmt]
    merge: List[ast.Stmt]
    context: SplitContext
    report: SplitReport

    @property
    def is_trivial(self) -> bool:
        """True when nothing could be made independent."""
        return not self.independent


def split_computation(
    stmts: Sequence[ast.Stmt],
    target: Descriptor,
    unit: ast.Unit,
    context: Optional[SplitContext] = None,
    heuristic: Optional[ReadLinkedHeuristic] = None,
    explicit_merge: bool = True,
    no_decompose: bool = False,
    ranges: Optional[Mapping[str, SymRange]] = None,
) -> SplitResult:
    """Apply split to computation ``stmts`` against descriptor ``target``.

    ``unit`` supplies declarations; pass an existing ``context`` to share
    fresh-name state across several applications (e.g. pipelining).
    ``ranges`` bounds free symbols of ``stmts`` (a pipelined loop's index).
    """
    if context is None:
        context = SplitContext(unit)
    if heuristic is None:
        heuristic = ReadLinkedHeuristic()
    report = SplitReport()

    working = clone_stmts(stmts)
    primitives = decompose(working, context, no_decompose=no_decompose)
    classification = classify(primitives, target)
    report.classification = classification

    # -- loop iteration splitting on Bound loops --------------------------------
    #: Each split loop's merge, after the later of its two pieces.
    merges: List[Tuple[Primitive, List[ast.Stmt]]] = []
    replacement: Dict[Primitive, List[Primitive]] = {}
    for primitive in classification.bound:
        if primitive.kind != LOOP:
            continue
        loop_split = try_split_loop(
            primitive.loop, target, context, explicit_merge, ranges
        )
        if loop_split is None:
            continue
        report.loop_splits.append((primitive, loop_split))
        pieces: List[Primitive] = []
        for piece_stmts in (loop_split.dependent, loop_split.independent):
            pieces.append(
                Primitive(
                    index=primitive.index,
                    kind=LOOP if len(piece_stmts) == 1 else "block",
                    stmts=piece_stmts,
                    descriptor=context.descriptor_of(piece_stmts),
                )
            )
        replacement[primitive] = pieces
        if loop_split.merge:
            merges.append((pieces[-1], loop_split.merge))

    if replacement:
        rebuilt: List[Primitive] = []
        for primitive in primitives:
            rebuilt.extend(replacement.get(primitive, [primitive]))
        for index, primitive in enumerate(rebuilt):
            primitive.index = index
        primitives = rebuilt
        classification = classify(primitives, target)
        report.classification = classification

    # -- subdivide Linked and decide ReadLinked moves -------------------------------
    subdivision = subdivide_linked(
        classification.linked, classification.bound
    )
    report.linked_subdivision = subdivision

    independent_set: List[Primitive] = list(classification.free)
    dependent_pool: List[Primitive] = (
        list(classification.bound)
        + list(subdivision.needs_bound)
        + list(subdivision.generate_linked)
    )
    replicate_into_independent: List[Primitive] = []

    movable_pool = (
        list(classification.free)
        + list(classification.linked)
    )
    supplied: Dict[Primitive, List[Primitive]] = {}
    for candidate in list(subdivision.read_linked):
        providers = suppliers_of(candidate, movable_pool)
        if any(p in classification.bound for p in providers):
            dependent_pool.append(candidate)
            continue
        to_replicate = [p for p in providers if p not in independent_set]
        if heuristic.should_move(candidate, to_replicate):
            independent_set.append(candidate)
            report.moved_read_linked.append(candidate)
            supplied[candidate] = providers
            for provider in to_replicate:
                if provider not in independent_set:
                    replicate_into_independent.append(provider)
                    report.replicated.append(provider)
        else:
            dependent_pool.append(candidate)

    # -- displace into C_M what C_I and C_D cannot run in either order ---------------
    # "C_D holds the rest of C, except for those sub-computations that rely
    # on values now computed in C_I."  C_I runs before or after C_D, and
    # C_M after both: a member of either that follows, in program order,
    # one of the other it interferes with, or the merge of a split loop
    # or a member already displaced, runs in C_M (a C_D member relying on
    # a replicated provider too; a moved member's own providers, whose
    # clones it reads, aside).
    producers = independent_set + replicate_into_independent
    late: List[Primitive] = [
        Primitive(piece.index, "block", stmts, context.descriptor_of(stmts))
        for piece, stmts in merges
    ]
    displaced: List[Primitive] = []
    remaining = [p for p in dependent_pool]
    changed = True
    while changed:
        changed = False
        for pool, others in (
            (remaining, producers), (independent_set, remaining)
        ):
            for primitive in list(pool):
                if any(
                    other.index < primitive.index
                    and other not in supplied.get(primitive, ())
                    and interfere(other.descriptor, primitive.descriptor)
                    for other in others + late
                ):
                    pool.remove(primitive)
                    displaced.append(primitive)
                    late.append(primitive)
                    changed = True
    report.displaced_to_merge = displaced

    # -- emit, preserving original program order --------------------------------------
    def emit(primitive_list: List[Primitive]) -> List[ast.Stmt]:
        seen: List[Primitive] = []
        for primitive in primitive_list:
            if primitive not in seen:
                seen.append(primitive)
        ordered = sorted(seen, key=lambda p: p.index)
        return [stmt for primitive in ordered for stmt in primitive.stmts]

    # Replicated providers appear in C_I as *clones*: the same computation
    # may also run in C_D for its original consumers.
    replica_stmts: List[Tuple[int, List[ast.Stmt]]] = [
        (p.index, clone_stmts(p.stmts))
        for p in replicate_into_independent
        if p not in independent_set
    ]
    independent_pairs = [
        (p.index, p.stmts)
        for p in sorted(set(independent_set), key=lambda p: p.index)
    ] + replica_stmts
    independent_pairs.sort(key=lambda pair: pair[0])
    independent_stmts = [s for _, group in independent_pairs for s in group]
    dependent_stmts = emit(remaining)
    # A displaced piece runs before its loop's merge, which runs before
    # anything displaced from later in C.
    merge_order = [(piece.index, 1, stmts) for piece, stmts in merges] + [
        (primitive.index, 0, primitive.stmts) for primitive in displaced
    ]
    merge_out = [
        stmt for *_, group in sorted(merge_order, key=lambda e: e[:2])
        for stmt in group
    ]

    return SplitResult(
        independent=independent_stmts,
        dependent=dependent_stmts,
        merge=merge_out,
        context=context,
        report=report,
    )
