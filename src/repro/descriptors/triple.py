"""Access triples ``<G> B[P]`` (Section 3.2).

"Each triple describes access to a given block of memory and is represented
in the form ``<G> B[P]``.  G is an optional symbolic guard expression; the
access represented by the triple is known not to occur if the guard is
proven false.  B is the memory block accessed.  P, also optional, describes
the pattern of access; if P is not specified, the triple refers to the
entire memory block."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Mapping, Optional, Tuple

from ..analysis.symbolic import SymExpr
from .guards import Guard, TRUE_GUARD, guard_mentions, guard_str, guard_substitute, guards_contradict
from .pattern import Pattern, dims_disjoint, pattern_covers


@dataclass(frozen=True)
class AccessTriple:
    """One guarded, patterned access to a memory block.

    ``pattern`` of ``None`` means the entire block (the paper's "if P is
    not specified").  Scalars are blocks with an empty pattern ``()``.
    """

    block: str
    pattern: Optional[Pattern] = None
    guard: Guard = TRUE_GUARD
    #: True when the triple over-approximates the real access (non-affine
    #: subscripts, dropped guards, range envelopes).  Over-approximation is
    #: fine for interference testing but disqualifies a write from
    #: *covering* reads (the live-on-entry rule needs must-write facts).
    approximate: bool = False

    def substitute(self, bindings: Mapping[str, SymExpr]) -> "AccessTriple":
        pattern = None
        if self.pattern is not None:
            pattern = tuple(d.substitute(bindings) for d in self.pattern)
        return AccessTriple(
            block=self.block,
            pattern=pattern,
            guard=guard_substitute(self.guard, bindings),
            approximate=self.approximate,
        )

    def mentions(self, name: str) -> bool:
        if guard_mentions(self.guard, name):
            return True
        if self.pattern:
            for dim in self.pattern:
                if (
                    dim.range.lo.mentions(name)
                    or dim.range.hi.mentions(name)
                    or (dim.mask is not None and dim.mask.value.mentions(name))
                ):
                    return True
        return False

    def __str__(self) -> str:
        text = self.block
        if self.pattern is not None and self.pattern:
            dims = ", ".join(str(d) for d in self.pattern)
            text = f"{self.block}[{dims}]"
        if self.guard:
            return f"< {guard_str(self.guard)} > {text}"
        return text


def triples_disjoint(
    a: AccessTriple,
    b: AccessTriple,
    distinct_pairs: FrozenSet[frozenset] = frozenset(),
) -> bool:
    """True when the two triples provably touch no common location.

    Conservative: any doubt means "not disjoint" ("we compute interference
    conservatively; descriptors interfere unless we can prove otherwise").
    """
    if a.block != b.block:
        return True
    if guards_contradict(a.guard, b.guard):
        return True
    if a.pattern is None or b.pattern is None:
        return False  # whole-block access overlaps anything in the block
    if a.pattern == () or b.pattern == ():
        # Scalar accesses to the same block always overlap.
        return False
    if len(a.pattern) != len(b.pattern):
        return False  # ill-matched ranks: be conservative
    return any(
        dims_disjoint(da, db, distinct_pairs)
        for da, db in zip(a.pattern, b.pattern)
    )


def triple_covered_by(read: AccessTriple, write: AccessTriple) -> bool:
    """True when ``write`` provably covers every location ``read`` touches.

    Requires the write to be unconditional (empty guard) — a guarded write
    may not occur, so it cannot dominate a read.
    """
    if write.guard or write.approximate:
        return False
    if read.block != write.block:
        return False
    return pattern_covers(write.pattern, read.pattern)
