"""Symbolic data descriptors and their builder (Section 3.2).

A :class:`Descriptor` is two sets of access triples — locations read and
locations written.  "The read set contains locations which are live on
entry to the code being annotated; reads known to be dominated by writes in
the write set are not included."

:class:`DescriptorBuilder` assembles descriptors for arbitrary statement
regions of an analysed unit.  Loops *inside* the region are promoted: the
induction variable is replaced by its range, and mask-style guards over the
variable become dimension masks, yielding the paper's

    write: q[1..10/(miss[*] <> 1), 1..10]

Names the caller wants to keep *unresolved* (the paper: "the analyzer
chooses the set of SSA names that may remain unresolved") simply stay
symbolic: build a descriptor for a loop's body rather than the loop itself
and the induction variable remains a free symbol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..analysis import AnalysisResult
from ..analysis.symbolic import SymExpr, SymRange, expr_from_ast, range_from_do
from ..lang import ast
from ..lang.builtins import lookup as lookup_intrinsic
from .guards import (
    Guard,
    MaskPred,
    TRUE_GUARD,
    guard_from_condition,
    guard_mentions,
)
from .pattern import DimPattern, Mask, Pattern
from .triple import AccessTriple, triple_covered_by, triples_disjoint


@dataclass(frozen=True)
class Descriptor:
    """A read/write summary of a computation's memory behaviour."""

    reads: Tuple[AccessTriple, ...] = ()
    writes: Tuple[AccessTriple, ...] = ()

    # -- algebra -------------------------------------------------------------

    def substitute(self, bindings: Mapping[str, SymExpr]) -> "Descriptor":
        """Rename/replace symbols (used to form iteration ``i-1``'s
        descriptor for pipelining, Section 3.3.2)."""
        return Descriptor(
            reads=tuple(t.substitute(bindings) for t in self.reads),
            writes=tuple(t.substitute(bindings) for t in self.writes),
        )

    def union(self, other: "Descriptor") -> "Descriptor":
        return Descriptor(
            reads=_dedup(self.reads + other.reads),
            writes=_dedup(self.writes + other.writes),
        )

    def blocks_read(self) -> FrozenSet[str]:
        return frozenset(t.block for t in self.reads)

    def blocks_written(self) -> FrozenSet[str]:
        return frozenset(t.block for t in self.writes)

    # -- rendering ---------------------------------------------------------------

    def __str__(self) -> str:
        lines = []
        if self.writes:
            lines.append("write: " + "  ".join(str(t) for t in self.writes))
        if self.reads:
            lines.append("read:  " + "  ".join(str(t) for t in self.reads))
        return "\n".join(lines) if lines else "(empty)"


EMPTY_DESCRIPTOR = Descriptor()


def _dedup(triples: Sequence[AccessTriple]) -> Tuple[AccessTriple, ...]:
    seen = []
    for triple in triples:
        if triple not in seen:
            seen.append(triple)
    return tuple(seen)


@dataclass(eq=False)
class _Event:
    """A raw access with its program-order sequence number."""

    seq: int
    mode: str  # "read" | "write"
    triple: AccessTriple


class DescriptorBuilder:
    """Builds descriptors for statement regions of one analysed unit."""

    def __init__(
        self,
        analysis: AnalysisResult,
        include_scalars: bool = True,
        exit_live: FrozenSet[str] = frozenset(),
    ):
        self.analysis = analysis
        self.values = analysis.values
        self.include_scalars = include_scalars
        #: Loop indices read after their loop: a loop over one writes it.
        self.exit_live = exit_live
        self.array_names = {
            d.name for d in analysis.unit.decls if d.is_array
        }
        self._decl_patterns: Dict[str, Pattern] = {}
        for decl in analysis.unit.decls:
            if decl.is_array:
                self._decl_patterns[decl.name] = self._whole_pattern(decl)

    # -- public API -----------------------------------------------------------

    def region(
        self,
        stmts: Sequence[ast.Stmt],
        extra_guard: Guard = TRUE_GUARD,
    ) -> Descriptor:
        """Descriptor for a statement region.

        Loops inside the region are promoted; anything defined outside
        stays symbolic.  ``extra_guard`` is conjoined onto every triple
        (used for per-iteration descriptors of guarded loops).
        """
        self._seq = 0
        events: List[_Event] = []
        self._walk_stmts(list(stmts), extra_guard, events, loop_vars=())
        return self._finish(events)

    def of_loop(self, loop: ast.DoLoop) -> Descriptor:
        """Descriptor of a whole loop (induction variable promoted)."""
        return self.region([loop])

    def of_iteration(self, loop: ast.DoLoop) -> Descriptor:
        """Descriptor of a single iteration (induction variable free).

        The ``where`` guard, if any, is attached to every triple, matching
        the paper's Figure 1 example (``<mask[col] <> 0> ...``).
        """
        base = self.region(loop.body)
        if loop.where is None:
            return base
        # The guard applies uniformly to the whole iteration, so it is
        # attached *after* assembly — it must not disable the
        # read-dominated-by-write rule within the iteration.
        guard = guard_from_condition(loop.where, self.values.expr_at)
        return Descriptor(
            reads=tuple(
                AccessTriple(t.block, t.pattern, guard + t.guard, t.approximate)
                for t in base.reads
            ),
            writes=tuple(
                AccessTriple(t.block, t.pattern, guard + t.guard, t.approximate)
                for t in base.writes
            ),
        )

    # -- construction: statements ------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _walk_stmts(
        self,
        stmts: Sequence[ast.Stmt],
        guard: Guard,
        events: List[_Event],
        loop_vars: Tuple[str, ...],
    ) -> None:
        for stmt in stmts:
            self._walk_stmt(stmt, guard, events, loop_vars)

    def _walk_stmt(
        self,
        stmt: ast.Stmt,
        guard: Guard,
        events: List[_Event],
        loop_vars: Tuple[str, ...],
    ) -> None:
        if isinstance(stmt, ast.Assign):
            self._expr_reads(stmt.value, guard, events, loop_vars)
            target = stmt.target
            if isinstance(target, ast.ArrayRef):
                for index in target.indices:
                    self._expr_reads(index, guard, events, loop_vars)
                triple = self._element_triple(target, guard)
                events.append(_Event(self._next_seq(), "write", triple))
            elif self.include_scalars and target.name not in loop_vars:
                events.append(
                    _Event(
                        self._next_seq(),
                        "write",
                        AccessTriple(block=target.name, pattern=(), guard=guard),
                    )
                )
        elif isinstance(stmt, ast.CallStmt):
            self._call_access(
                stmt.name, stmt.args, guard, events, loop_vars, is_stmt=True
            )
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._expr_reads(stmt.value, guard, events, loop_vars)
        elif isinstance(stmt, ast.If):
            self._expr_reads(stmt.cond, guard, events, loop_vars)
            then_guard = guard + guard_from_condition(
                stmt.cond, self.values.expr_at
            )
            self._walk_stmts(stmt.then_body, then_guard, events, loop_vars)
            else_guard = guard + guard_from_condition(
                stmt.cond, self.values.expr_at, negated=True
            )
            self._walk_stmts(stmt.else_body, else_guard, events, loop_vars)
        elif isinstance(stmt, ast.DoLoop):
            self._loop_access(stmt, guard, events, loop_vars)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected statement {type(stmt).__name__}")

    # -- construction: loops (promotion) ----------------------------------------------

    def _loop_access(
        self,
        loop: ast.DoLoop,
        guard: Guard,
        events: List[_Event],
        loop_vars: Tuple[str, ...],
    ) -> None:
        for rng in loop.ranges:
            self._expr_reads(rng.lo, guard, events, loop_vars)
            self._expr_reads(rng.hi, guard, events, loop_vars)
            if rng.step is not None:
                self._expr_reads(rng.step, guard, events, loop_vars)
        body_guard = guard
        body_events: List[_Event] = []
        if loop.where is not None:
            # Evaluated once per iteration: its reads are promoted with
            # the body's.
            self._expr_reads(loop.where, guard, body_events, loop_vars)
            body_guard = guard + guard_from_condition(
                loop.where, self.values.expr_at
            )
        self._walk_stmts(
            loop.body, body_guard, body_events, loop_vars + (loop.var,)
        )
        ranges = [range_from_do(r, None) or None for r in loop.ranges]
        # Resolve symbolic bounds through value propagation where possible.
        resolved: List[Optional[SymRange]] = []
        for rng_ast, rng in zip(loop.ranges, ranges):
            lo = self.values.expr_at(rng_ast.lo)
            hi = self.values.expr_at(rng_ast.hi)
            if lo is not None and hi is not None:
                skip = rng.skip if rng is not None else 1
                resolved.append(SymRange(lo, hi, skip))
            else:
                resolved.append(None)
        # Within one iteration a write covers a later read; across the
        # promoted range it covers nothing of the loop's own reads, which
        # all take the loop's first sequence number.
        body_events = _live(body_events)
        first = min((event.seq for event in body_events), default=0)
        for event in body_events:
            seq = first if event.mode == "read" else event.seq
            for rng in resolved:
                promoted = _promote(event.triple, loop.var, rng)
                events.append(_Event(seq, event.mode, promoted))
        if self.include_scalars and loop.var in self.exit_live:
            # Left at its last value, unless the loop never ran.
            events.append(
                _Event(
                    self._next_seq(),
                    "write",
                    AccessTriple(loop.var, (), guard, approximate=True),
                )
            )

    # -- construction: expressions --------------------------------------------------

    def _expr_reads(
        self,
        expr: ast.Expr,
        guard: Guard,
        events: List[_Event],
        loop_vars: Tuple[str, ...],
    ) -> None:
        if isinstance(expr, ast.Var):
            if expr.name in self.array_names:
                events.append(
                    _Event(
                        self._next_seq(),
                        "read",
                        self._whole_triple(expr.name, guard),
                    )
                )
            elif self.include_scalars and expr.name not in loop_vars:
                events.append(
                    _Event(
                        self._next_seq(),
                        "read",
                        AccessTriple(block=expr.name, pattern=(), guard=guard),
                    )
                )
            return
        if isinstance(expr, ast.ArrayRef):
            for index in expr.indices:
                self._expr_reads(index, guard, events, loop_vars)
            triple = self._element_triple(expr, guard)
            events.append(_Event(self._next_seq(), "read", triple))
            return
        if isinstance(expr, ast.Call):
            self._call_access(
                expr.name, expr.args, guard, events, loop_vars, is_stmt=False
            )
            return
        for child in expr.children():
            self._expr_reads(child, guard, events, loop_vars)

    def _call_access(
        self,
        name: str,
        args: Sequence[ast.Expr],
        guard: Guard,
        events: List[_Event],
        loop_vars: Tuple[str, ...],
        is_stmt: bool,
    ) -> None:
        info = lookup_intrinsic(name)
        reads_only = info is not None and info.reads_arrays_only
        pure = info is not None and info.pure
        for index, arg in enumerate(args):
            if isinstance(arg, ast.Var) and arg.name in self.array_names:
                events.append(
                    _Event(
                        self._next_seq(),
                        "read",
                        self._whole_triple(arg.name, guard),
                    )
                )
                if not reads_only:
                    events.append(
                        _Event(
                            self._next_seq(),
                            "write",
                            self._whole_triple(arg.name, guard, approximate=True),
                        )
                    )
            else:
                self._expr_reads(arg, guard, events, loop_vars)
                if (
                    is_stmt
                    and not pure
                    and self.include_scalars
                    and isinstance(arg, ast.Var)
                    and arg.name not in loop_vars
                ):
                    events.append(
                        _Event(
                            self._next_seq(),
                            "write",
                            AccessTriple(
                                block=arg.name,
                                pattern=(),
                                guard=guard,
                                approximate=True,
                            ),
                        )
                    )

    # -- triple helpers ---------------------------------------------------------------

    def _element_triple(self, ref: ast.ArrayRef, guard: Guard) -> AccessTriple:
        dims: List[DimPattern] = []
        approximate = False
        decl_pattern = self._decl_patterns.get(ref.name)
        for position, index in enumerate(ref.indices):
            value = self.values.expr_at(index)
            if value is None:
                # Non-affine subscript: the whole dimension, approximately.
                if decl_pattern is not None and position < len(decl_pattern):
                    dims.append(decl_pattern[position])
                else:
                    dims.append(
                        DimPattern(
                            SymRange(
                                SymExpr.constant(1),
                                SymExpr.var(f"{ref.name}.dim{position}"),
                            )
                        )
                    )
                approximate = True
            else:
                dims.append(DimPattern.point(value))
        return AccessTriple(
            block=ref.name,
            pattern=tuple(dims),
            guard=guard,
            approximate=approximate,
        )

    def _whole_triple(
        self, array: str, guard: Guard, approximate: bool = False
    ) -> AccessTriple:
        pattern = self._decl_patterns.get(array)
        return AccessTriple(
            block=array, pattern=pattern, guard=guard, approximate=approximate
        )

    def _whole_pattern(self, decl: ast.Decl) -> Optional[Pattern]:
        dims: List[DimPattern] = []
        for dim in decl.dims:
            lo = expr_from_ast(dim.lo)
            hi = expr_from_ast(dim.hi)
            if lo is None or hi is None:
                return None
            dims.append(DimPattern(SymRange(lo, hi)))
        return tuple(dims)

    # -- assembly -----------------------------------------------------------------------

    def _finish(self, events: List[_Event]) -> Descriptor:
        live = _live(events)
        return Descriptor(
            reads=_dedup([e.triple for e in live if e.mode == "read"]),
            writes=_dedup([e.triple for e in live if e.mode == "write"]),
        )


def _live(events: List[_Event]) -> List[_Event]:
    """``events`` in program order, less the reads an earlier write
    covers (they are not live on entry)."""
    live: List[_Event] = []
    writes: List[_Event] = []
    for event in sorted(events, key=lambda e: e.seq):
        if event.mode == "write":
            writes.append(event)
        elif any(
            w.seq < event.seq and triple_covered_by(event.triple, w.triple)
            for w in writes
        ):
            continue
        live.append(event)
    return live


# ---------------------------------------------------------------------------
# Loop promotion
# ---------------------------------------------------------------------------


def _promote(
    triple: AccessTriple, var: str, rng: Optional[SymRange]
) -> AccessTriple:
    """Promote ``var`` to its range within one triple.

    ``rng`` of ``None`` means the bounds were unanalysable — everything
    mentioning the variable degrades to an approximate envelope.
    """
    guard = triple.guard
    pattern = triple.pattern
    approximate = triple.approximate

    if pattern is None:
        # Whole-block triple: just drop guards mentioning the variable.
        kept = tuple(p for p in guard if not p.mentions(var))
        if len(kept) != len(guard):
            approximate = True
        return AccessTriple(triple.block, None, kept, approximate)

    # Step 1: convert mask-style guards over `var` into dimension masks on
    # dimensions whose pattern is exactly the point `var`.
    var_expr = SymExpr.var(var)
    new_dims = list(pattern)
    remaining: List = []
    for pred in guard:
        converted = False
        if isinstance(pred, MaskPred) and pred.index == var_expr:
            for position, dim in enumerate(new_dims):
                if (
                    dim.is_point
                    and dim.range.lo == var_expr
                    and dim.mask is None
                ):
                    new_dims[position] = DimPattern(
                        dim.range, Mask.from_pred(pred)
                    )
                    converted = True
                    break
        if not converted:
            remaining.append(pred)

    # Step 2: drop any other guards mentioning the variable (conservative).
    kept_guard = []
    for pred in remaining:
        if pred.mentions(var):
            approximate = True
        else:
            kept_guard.append(pred)

    # Step 3: widen each dimension over the variable's range.
    out_dims: List[DimPattern] = []
    for dim in new_dims:
        widened, exact = _widen_dim(dim, var, rng)
        out_dims.append(widened)
        if not exact:
            approximate = True

    return AccessTriple(
        block=triple.block,
        pattern=tuple(out_dims),
        guard=tuple(kept_guard),
        approximate=approximate,
    )


def _widen_dim(
    dim: DimPattern, var: str, rng: Optional[SymRange]
) -> Tuple[DimPattern, bool]:
    """Widen one dimension over ``var in rng``; returns (pattern, exact)."""
    mask = dim.mask
    mask_exact = True
    if mask is not None and mask.value.mentions(var):
        mask = None
        mask_exact = False

    lo, hi, skip = dim.range.lo, dim.range.hi, dim.range.skip
    lo_coef = lo.coefficient(var)
    hi_coef = hi.coefficient(var)
    if lo_coef == 0 and hi_coef == 0:
        return DimPattern(dim.range, mask), mask_exact

    if rng is None:
        # Unknown bounds: keep the symbolic variable (it stays a free
        # symbol) but flag the triple as approximate.
        return DimPattern(dim.range, mask), False

    if dim.is_point:
        coef = lo_coef
        at_lo = lo.substitute({var: rng.lo})
        at_hi = lo.substitute({var: rng.hi})
        if coef >= 0:
            new_range = SymRange(at_lo, at_hi, abs(coef) * rng.skip or 1)
        else:
            new_range = SymRange(at_hi, at_lo, abs(coef) * rng.skip)
        exact = mask_exact
        return DimPattern(new_range, mask), exact

    # A genuine range depending on the variable: take the envelope.
    new_lo = lo.substitute({var: rng.lo if lo_coef >= 0 else rng.hi})
    new_hi = hi.substitute({var: rng.hi if hi_coef >= 0 else rng.lo})
    return DimPattern(SymRange(new_lo, new_hi, 1), mask), False


# ---------------------------------------------------------------------------
# Loop independence (the paper's iteration test)
# ---------------------------------------------------------------------------


def loop_iterations_independent(
    loop: ast.DoLoop, builder: DescriptorBuilder
) -> bool:
    """The paper's test: iterations are independent if changing the
    induction variable yields a descriptor intersecting the original only
    in their read sets."""
    base = builder.of_iteration(loop)
    fresh = f"{loop.var}'"
    other = base.substitute({loop.var: SymExpr.var(fresh)})
    pairs = frozenset({frozenset({loop.var, fresh})})
    return not descriptors_interfere(base, other, pairs)


def descriptors_interfere(
    a: Descriptor,
    b: Descriptor,
    distinct_pairs: FrozenSet[frozenset] = frozenset(),
) -> bool:
    """Interference (Section 3.2): output-, flow-, or anti-dependency."""
    return (
        _overlap(a.writes, b.writes, distinct_pairs)
        or _overlap(a.writes, b.reads, distinct_pairs)
        or _overlap(a.reads, b.writes, distinct_pairs)
    )


def descriptor_flow_interferes(
    pred: Descriptor,
    succ: Descriptor,
    distinct_pairs: FrozenSet[frozenset] = frozenset(),
) -> bool:
    """Flow interference: ``pred.writes`` meets ``succ.reads``
    (Section 3.3.1: "A successor computation B has a flow interference from
    a predecessor computation A if A_write intersect B_read != 0")."""
    return _overlap(pred.writes, succ.reads, distinct_pairs)


def _overlap(
    xs: Tuple[AccessTriple, ...],
    ys: Tuple[AccessTriple, ...],
    distinct_pairs: FrozenSet[frozenset],
) -> bool:
    for x in xs:
        for y in ys:
            if not triples_disjoint(x, y, distinct_pairs):
                return True
    return False
