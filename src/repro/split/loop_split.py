"""Loop iteration splitting (Section 3.3.1).

"As in this case, it is often possible to split the iterations of a loop in
Bound into two sets, one of which interferes with D and one of which does
not.  It is legal to split iterations when we have nests of loops that are
either independent or computing a reduction; they can be split by placing a
conditional on the induction variable."

The implementation is *verification-driven*: candidate restrictions are
proposed from the shape of the target descriptor (excluded points from
point-pattern dimensions, complementary ``where`` guards from masked
dimensions), the restricted loop is synthesised, re-analysed, and kept only
if its descriptor provably no longer interferes with the target.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.symbolic import SymExpr, SymRange, compare, expr_from_ast
from ..descriptors import (
    Descriptor,
    DescriptorBuilder,
    DimPattern,
    dim_covers,
    interfere,
    loop_iterations_independent,
)
from ..descriptors.guards import MaskPred
from ..lang import ast
from .context import SplitContext

#: Reduction operators and their identity elements.
_REDUCTION_IDENTITY = {"+": 0, "*": 1}


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def find_reductions(loop: ast.DoLoop) -> Dict[str, str]:
    """Scalar accumulators of ``loop``: name -> associative operator.

    A scalar ``s`` is an accumulator when every statement touching it in
    the nest has the shape ``s = s OP expr`` (or ``s = expr OP s``) with a
    single associative ``OP`` and ``expr`` not reading ``s``.
    """
    candidates: Dict[str, str] = {}
    rejected = set()
    for node in loop.walk():
        if isinstance(node, ast.Assign):
            target = node.target
            if isinstance(target, ast.Var):
                op = _reduction_op(target.name, node.value)
                if op is None:
                    rejected.add(target.name)
                else:
                    previous = candidates.get(target.name)
                    if previous is not None and previous != op:
                        rejected.add(target.name)
                    else:
                        candidates[target.name] = op
        elif isinstance(node, ast.CallStmt):
            for arg in node.args:
                if isinstance(arg, ast.Var):
                    rejected.add(arg.name)
    # Any *other* read of the accumulator disqualifies it.
    for node in loop.walk():
        if isinstance(node, ast.Assign):
            reads = _reads_outside_reduction(node)
        elif isinstance(node, ast.DoLoop):
            reads = set()
            for rng in node.ranges:
                reads.update(ast.variables_read(rng.lo))
                reads.update(ast.variables_read(rng.hi))
            if node.where is not None:
                reads.update(ast.variables_read(node.where))
        elif isinstance(node, ast.If):
            reads = set(ast.variables_read(node.cond))
        else:
            continue
        rejected.update(reads & set(candidates))
    return {
        name: op for name, op in candidates.items() if name not in rejected
    }


def _reduction_op(name: str, value: ast.Expr) -> Optional[str]:
    """The operator if ``value`` has the shape ``name OP rest``."""
    if not isinstance(value, ast.BinOp) or value.op not in _REDUCTION_IDENTITY:
        return None
    left_is_acc = isinstance(value.left, ast.Var) and value.left.name == name
    right_is_acc = isinstance(value.right, ast.Var) and value.right.name == name
    if left_is_acc == right_is_acc:  # neither, or both
        return None
    rest = value.right if left_is_acc else value.left
    if name in ast.variables_read(rest):
        return None
    return value.op


def _reads_outside_reduction(stmt: ast.Assign) -> set:
    """Scalar reads of ``stmt`` excluding a well-formed accumulator use."""
    target = stmt.target
    reads = set()
    if isinstance(target, ast.ArrayRef):
        for index in target.indices:
            reads.update(ast.variables_read(index))
        reads.update(ast.variables_read(stmt.value))
        return reads
    op = _reduction_op(target.name, stmt.value)
    if op is None:
        reads.update(ast.variables_read(stmt.value))
        return reads
    value = stmt.value
    rest = value.right if (
        isinstance(value.left, ast.Var) and value.left.name == target.name
    ) else value.left
    reads.update(ast.variables_read(rest))
    return reads


def iterations_independent_modulo_reductions(
    loop: ast.DoLoop,
    builder: DescriptorBuilder,
    accumulators: Dict[str, str],
) -> bool:
    """Independence test with reduction accumulators set aside."""
    base = builder.of_iteration(loop)
    filtered = Descriptor(
        reads=tuple(t for t in base.reads if t.block not in accumulators),
        writes=tuple(t for t in base.writes if t.block not in accumulators),
    )
    fresh = f"{loop.var}'"
    other = filtered.substitute({loop.var: SymExpr.var(fresh)})
    pairs = frozenset({frozenset({loop.var, fresh})})
    return not interfere(filtered, other, pairs)


# ---------------------------------------------------------------------------
# Restriction candidates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointCandidate:
    """Exclude the single iteration ``var == expr``."""

    expr: SymExpr

    def describe(self) -> str:
        return f"exclude point {self.expr}"


@dataclass(frozen=True)
class MultiPointCandidate:
    """Exclude several iterations at once (``var`` in a point set).

    Used for deeper pipelining (Section 3.3.2: "If deeper pipelining is
    desired, the descriptor for iteration i-2 can be computed, etc."),
    where both ``col-1`` and ``col-2`` must be excluded.  The points must
    be mutually ordered by constant differences.
    """

    exprs: Tuple[SymExpr, ...]  # sorted ascending

    def describe(self) -> str:
        return "exclude points " + ", ".join(str(e) for e in self.exprs)


@dataclass(frozen=True)
class MaskCandidate:
    """Restrict to iterations where ``array(var) OP value`` is *false*
    (the independent piece takes the complement of the target's mask)."""

    array: str
    op: str
    value: SymExpr

    def describe(self) -> str:
        return f"complement of mask {self.array}[*] {self.op} {self.value}"


Candidate = object  # Union[PointCandidate, MaskCandidate]


def restriction_candidates(target: Descriptor) -> List[Candidate]:
    """Propose restrictions from the shapes in the target descriptor."""
    candidates: List[Candidate] = []
    seen = set()

    def add(candidate: Candidate) -> None:
        if candidate not in seen:
            seen.add(candidate)
            candidates.append(candidate)

    for triple in tuple(target.writes) + tuple(target.reads):
        for pred in triple.guard:
            if isinstance(pred, MaskPred):
                add(MaskCandidate(pred.array, pred.op, pred.value))
        if triple.pattern:
            for dim in triple.pattern:
                if dim.mask is not None:
                    add(MaskCandidate(dim.mask.array, dim.mask.op, dim.mask.value))
                if dim.is_point:
                    add(PointCandidate(dim.range.lo))
    # Compose a multi-point candidate from every point candidate whose
    # pairwise differences are constant (deeper pipelining excludes
    # several adjacent iterations at once).
    points = [c.expr for c in candidates if isinstance(c, PointCandidate)]
    ordered = _order_points(points)
    if ordered is not None and len(ordered) >= 2:
        candidates.append(MultiPointCandidate(tuple(ordered)))
    return candidates


def _order_points(points: List[SymExpr]) -> Optional[List[SymExpr]]:
    """Sort and dedup points by constant pairwise differences, or None."""
    unique: List[SymExpr] = []
    for point in points:
        if point not in unique:
            unique.append(point)
    if len(unique) < 2:
        return unique
    base = unique[0]
    keyed = []
    for point in unique:
        offset = (point - base).constant_value()
        if offset is None:
            return None
        keyed.append((offset, point))
    keyed.sort(key=lambda pair: pair[0])
    return [point for _, point in keyed]


# ---------------------------------------------------------------------------
# AST synthesis helpers
# ---------------------------------------------------------------------------


def symexpr_to_ast(expr: SymExpr) -> ast.Expr:
    """Render an affine symbolic expression back into MiniF AST."""
    result: Optional[ast.Expr] = None

    def combine(term: ast.Expr, negative: bool) -> None:
        nonlocal result
        if result is None:
            result = ast.UnOp(op="-", operand=term) if negative else term
        else:
            result = ast.BinOp(op="-" if negative else "+", left=result, right=term)

    for name, coef in expr.terms:
        magnitude = abs(coef)
        term: ast.Expr = ast.Var(name=name)
        if magnitude != 1:
            term = ast.BinOp(op="*", left=ast.IntLit(value=magnitude), right=term)
        combine(term, coef < 0)
    const = expr.const
    if const or result is None:
        if isinstance(const, float):
            lit: ast.Expr = ast.FloatLit(value=abs(const))
        else:
            lit = ast.IntLit(value=abs(const))
        combine(lit, const < 0)
    return result


def _conjoin_where(loop: ast.DoLoop, cond: ast.Expr) -> None:
    if loop.where is None:
        loop.where = cond
    else:
        loop.where = ast.BinOp(op="and", left=loop.where, right=cond)


def rename_scalar(stmts: Sequence[ast.Stmt], old: str, new: str) -> None:
    """Rename every scalar occurrence of ``old`` (uses and defs) in place."""
    for stmt in stmts:
        for node in stmt.walk():
            if isinstance(node, ast.Var) and node.name == old:
                node.name = new


def rename_array(stmts: Sequence[ast.Stmt], old: str, new: str) -> None:
    """Rename every reference to array ``old`` in place."""
    for stmt in stmts:
        for node in stmt.walk():
            if isinstance(node, ast.ArrayRef) and node.name == old:
                node.name = new
            elif isinstance(node, ast.Var) and node.name == old:
                node.name = new


# ---------------------------------------------------------------------------
# The split itself
# ---------------------------------------------------------------------------


@dataclass
class LoopSplit:
    """The outcome of splitting one loop's iterations.

    ``independent`` provably does not interfere with the target descriptor;
    ``dependent`` holds the remaining iterations; ``merge`` recombines
    results (replicated reduction accumulators, optional explicit array
    merges).  ``renamed_arrays`` maps original array names to the
    (independent, dependent) replicas when an explicit merge was generated.
    """

    independent: List[ast.Stmt]
    dependent: List[ast.Stmt]
    merge: List[ast.Stmt] = field(default_factory=list)
    restriction: str = ""
    level_var: str = ""
    accumulators: Dict[str, str] = field(default_factory=dict)
    renamed_arrays: Dict[str, Tuple[str, str]] = field(default_factory=dict)


def _nest_loops(loop: ast.DoLoop) -> List[ast.DoLoop]:
    """The loop and its nested loops, outermost first (preorder)."""
    return [n for n in loop.walk() if isinstance(n, ast.DoLoop)]


def try_split_loop(
    loop: ast.DoLoop,
    target: Descriptor,
    context: SplitContext,
    explicit_merge: bool = True,
    ranges: Optional[Mapping[str, SymRange]] = None,
) -> Optional[LoopSplit]:
    """Attempt to split ``loop``'s iterations away from ``target``.

    Tries every (loop level, candidate restriction) pair and returns the
    first verified split, or ``None``.  ``ranges`` bounds free symbols
    (a pipelined loop's index), so an excluded point can be shown to lie
    in a level's range.
    """
    candidates = restriction_candidates(target)
    if not candidates:
        return None
    builder = context.builder_for([loop])
    root = builder.body[0]
    accumulators = find_reductions(root)
    levels = _nest_loops(root)
    # Legality: every level down the nest must be independent modulo the
    # reductions.
    legal_vars = []
    for level in levels:
        if iterations_independent_modulo_reductions(
            level, builder.builder, accumulators
        ):
            legal_vars.append(level.var)
        else:
            break
    for level in levels:
        if level.var not in legal_vars:
            continue
        for candidate in candidates:
            result = _attempt(
                loop,
                level.var,
                candidate,
                target,
                context,
                accumulators,
                explicit_merge,
                ranges or {},
            )
            if result is not None:
                return result
    return None


def _attempt(
    loop: ast.DoLoop,
    var: str,
    candidate: Candidate,
    target: Descriptor,
    context: SplitContext,
    accumulators: Dict[str, str],
    explicit_merge: bool,
    ranges: Mapping[str, SymRange],
) -> Optional[LoopSplit]:
    independent = copy.deepcopy(loop)
    dependent = copy.deepcopy(loop)
    indep_level = _find_level(independent, var)
    dep_level = _find_level(dependent, var)
    # Restricted ranges would run an excluded point outside the level's
    # own range: they need a point surely in it.
    points = getattr(candidate, "exprs", None) or (
        getattr(candidate, "expr", None),
    )
    assume_point_in_range = all(
        _in_range(point, _find_level(loop, var), target, context, ranges)
        for point in points
    )

    if isinstance(candidate, PointCandidate):
        if candidate.expr.mentions(var):
            return None
        ok = _restrict_exclude_point(
            indep_level, candidate.expr, assume_point_in_range
        )
        if not ok:
            return None
        _restrict_to_point(dep_level, candidate.expr, assume_point_in_range)
        description = candidate.describe()
    elif isinstance(candidate, MultiPointCandidate):
        if any(e.mentions(var) for e in candidate.exprs):
            return None
        if not assume_point_in_range:
            return None
        if any(r.step is not None for r in indep_level.ranges):
            return None
        _restrict_exclude_points(indep_level, candidate.exprs)
        dep_level.ranges = [
            ast.DoRange(
                lo=symexpr_to_ast(expr), hi=symexpr_to_ast(expr)
            )
            for expr in candidate.exprs
        ]
        description = candidate.describe()
    elif isinstance(candidate, MaskCandidate):
        if candidate.value.mentions(var):
            return None
        complement = _mask_cond(candidate, var, complement=True)
        original = _mask_cond(candidate, var, complement=False)
        _conjoin_where(indep_level, complement)
        _conjoin_where(dep_level, original)
        description = candidate.describe()
    else:  # pragma: no cover - defensive
        return None

    # Verify: the independent piece must not interfere with the target.
    indep_descriptor = context.descriptor_of([independent])
    filtered = Descriptor(
        reads=tuple(
            t for t in indep_descriptor.reads if t.block not in accumulators
        ),
        writes=tuple(
            t for t in indep_descriptor.writes if t.block not in accumulators
        ),
    )
    if interfere(filtered, target):
        return None

    split = LoopSplit(
        independent=[independent],
        dependent=[dependent],
        restriction=description,
        level_var=var,
    )
    _replicate_accumulators(split, accumulators, context)
    if explicit_merge:
        _explicit_array_merge(split, loop, var, candidate, context)
    return split


def _in_range(
    point: Optional[SymExpr],
    level: ast.DoLoop,
    target: Descriptor,
    context: SplitContext,
    ranges: Mapping[str, SymRange],
) -> bool:
    """True when ``point`` surely lies in ``level``'s one range: by the
    ``ranges`` of its symbols, or because the target subscripts, at
    ``point``, an array dimension declared as that range (a program that
    runs the target keeps it in bounds; a point naming a loop index may
    name an iteration that does not exist)."""
    if point is None or len(level.ranges) != 1 or level.ranges[0].step:
        return False
    bounds = (expr_from_ast(level.ranges[0].lo), expr_from_ast(level.ranges[0].hi))
    if None in bounds:
        return False
    low = high = SymExpr.constant(point.const)
    for name, coef in point.terms:
        rng = ranges.get(name, SymRange.single(SymExpr.var(name)))
        least, most = (rng.lo, rng.hi) if coef > 0 else (rng.hi, rng.lo)
        low, high = low + least * coef, high + most * coef
    if compare(low, bounds[0]) in (0, 1) and compare(bounds[1], high) in (0, 1):
        return True
    if any(point.mentions(index) for index in context.indices):
        return False
    for triple in target.reads + target.writes:
        decl = context.decl_for(triple.block)
        if (
            triple.guard
            or triple.approximate
            or not triple.pattern
            or decl is None
            or any(dim.mask is not None for dim in triple.pattern)
        ):
            continue
        for dim, spec in zip(triple.pattern, decl.dims):
            if dim.range == SymRange.single(point) and bounds == (
                expr_from_ast(spec.lo), expr_from_ast(spec.hi)
            ):
                return True
    return False


def _find_level(root: ast.DoLoop, var: str) -> ast.DoLoop:
    for node in root.walk():
        if isinstance(node, ast.DoLoop) and node.var == var:
            return node
    raise KeyError(var)


def _restrict_exclude_point(
    level: ast.DoLoop, point: SymExpr, assume_in_range: bool
) -> bool:
    """Rewrite the level's ranges to skip ``var == point``."""
    point_ast = symexpr_to_ast(point)
    if all(r.step is None for r in level.ranges) and assume_in_range:
        new_ranges: List[ast.DoRange] = []
        for rng in level.ranges:
            before = ast.DoRange(
                lo=copy.deepcopy(rng.lo),
                hi=symexpr_to_ast(point - 1),
            )
            after = ast.DoRange(
                lo=symexpr_to_ast(point + 1),
                hi=copy.deepcopy(rng.hi),
            )
            new_ranges.extend([before, after])
        level.ranges = new_ranges
        return True
    # Fallback: keep ranges, add a where-conjunct var <> point.
    _conjoin_where(
        level,
        ast.BinOp(op="<>", left=ast.Var(name=level.var), right=point_ast),
    )
    return True


def _restrict_exclude_points(
    level: ast.DoLoop, points: Tuple[SymExpr, ...]
) -> None:
    """Rewrite ranges to skip every point (points sorted ascending)."""
    new_ranges: List[ast.DoRange] = []
    for rng in level.ranges:
        lo_ast = copy.deepcopy(rng.lo)
        for point in points:
            new_ranges.append(
                ast.DoRange(lo=lo_ast, hi=symexpr_to_ast(point - 1))
            )
            lo_ast = symexpr_to_ast(point + 1)
        new_ranges.append(ast.DoRange(lo=lo_ast, hi=copy.deepcopy(rng.hi)))
    level.ranges = new_ranges


def _restrict_to_point(
    level: ast.DoLoop, point: SymExpr, assume_in_range: bool
) -> None:
    point_ast = symexpr_to_ast(point)
    if assume_in_range:
        level.ranges = [
            ast.DoRange(lo=copy.deepcopy(point_ast), hi=copy.deepcopy(point_ast))
        ]
    else:
        _conjoin_where(
            level,
            ast.BinOp(op="==", left=ast.Var(name=level.var), right=point_ast),
        )


def _mask_cond(candidate: MaskCandidate, var: str, complement: bool) -> ast.Expr:
    op = candidate.op
    if complement:
        op = ast.NEGATED_COMPARISON[op]
    return ast.BinOp(
        op=op,
        left=ast.ArrayRef(name=candidate.array, indices=[ast.Var(name=var)]),
        right=symexpr_to_ast(candidate.value),
    )


def _replicate_accumulators(
    split: LoopSplit, accumulators: Dict[str, str], context: SplitContext
) -> None:
    """Give the independent piece fresh accumulators and merge them back.

    The dependent piece keeps the original accumulator (so any incoming
    value flows through it); the independent piece accumulates into a fresh
    scalar initialised to the operator's identity; the merge applies the
    operator once (the paper's "as a final step in merging, the last
    reduction is performed")."""
    for name, op in accumulators.items():
        decl = context.decl_for(name)
        base_type = decl.base_type if decl else "real"
        replica = context.fresh_scalar(name, base_type)
        rename_scalar(split.independent, name, replica)
        identity = _REDUCTION_IDENTITY[op]
        split.independent.insert(
            0,
            ast.Assign(
                target=ast.Var(name=replica), value=ast.IntLit(value=identity)
            ),
        )
        split.merge.append(
            ast.Assign(
                target=ast.Var(name=name),
                value=ast.BinOp(
                    op=op,
                    left=ast.Var(name=name),
                    right=ast.Var(name=replica),
                ),
            )
        )
        split.accumulators[name] = replica


def _explicit_array_merge(
    split: LoopSplit,
    original: ast.DoLoop,
    var: str,
    candidate: Candidate,
    context: SplitContext,
) -> None:
    """Replicate arrays written by both pieces and synthesise merge loops.

    Follows Figure 2: each piece writes its own replica; the merge iterates
    the restriction variable and copies the slice from whichever replica
    owns it.  Only arrays whose written dimension is indexed *exactly* by
    the restriction variable, and whose every iteration surely writes its
    whole slice, are merged explicitly (a merge copies whole slices, an
    unwritten element too); others stay implicit (disjoint in-place
    writes)."""
    builder = context.builder_for([original])
    var_expr = SymExpr.var(var)

    # Identify, per written array, the dimension carried by the restriction
    # variable.  The iteration view (induction variables unresolved) shows
    # it directly: a point dimension whose expression is exactly `var`.
    merge_specs: List[Tuple[str, int]] = []
    level_in_fragment = _find_level(builder.body[0], var)
    iteration = builder.builder.of_iteration(level_in_fragment)
    for triple in iteration.writes:
        if not triple.pattern or triple.approximate or triple.guard:
            continue
        for position, dim in enumerate(triple.pattern):
            if (
                dim.is_point
                and dim.range.lo == var_expr
                and _writes_slice(triple, position, context)
            ):
                spec = (triple.block, position)
                if spec not in merge_specs:
                    merge_specs.append(spec)

    # A replica starts empty: an array the loop reads on entry keeps its
    # in-place writes.
    live = builder.builder.region(builder.body).blocks_read()
    for array, position in merge_specs:
        decl = context.decl_for(array)
        if decl is None or not decl.is_array or array in live:
            continue
        indep_name = context.fresh_array_like(array)
        dep_name = context.fresh_array_like(array)
        rename_array(split.independent, array, indep_name)
        rename_array(split.dependent, array, dep_name)
        split.renamed_arrays[array] = (indep_name, dep_name)
        split.merge.append(
            _merge_loop(
                array,
                indep_name,
                dep_name,
                position,
                decl,
                original,
                var,
                candidate,
            )
        )


def _writes_slice(triple, position: int, context: SplitContext) -> bool:
    """True when ``triple`` covers every declared element of its array
    along each dimension but ``position``."""
    decl = context.decl_for(triple.block)
    if decl is None or decl.rank != len(triple.pattern):
        return False
    for index, (dim, spec) in enumerate(zip(triple.pattern, decl.dims)):
        lo, hi = expr_from_ast(spec.lo), expr_from_ast(spec.hi)
        if index != position and (
            lo is None
            or hi is None
            or not dim_covers(dim, DimPattern(SymRange(lo, hi)))
        ):
            return False
    return True


def _merge_loop(
    array: str,
    indep_name: str,
    dep_name: str,
    position: int,
    decl: ast.Decl,
    original: ast.DoLoop,
    var: str,
    candidate: Candidate,
) -> ast.Stmt:
    """``do v = <ranges>: if (<indep cond>) copy from indep else from dep``."""
    level = _find_level(copy.deepcopy(original), var)
    if isinstance(candidate, PointCandidate):
        indep_cond: ast.Expr = ast.BinOp(
            op="<>",
            left=ast.Var(name=var),
            right=symexpr_to_ast(candidate.expr),
        )
    elif isinstance(candidate, MultiPointCandidate):
        indep_cond = ast.BinOp(
            op="<>",
            left=ast.Var(name=var),
            right=symexpr_to_ast(candidate.exprs[0]),
        )
        for expr in candidate.exprs[1:]:
            indep_cond = ast.BinOp(
                op="and",
                left=indep_cond,
                right=ast.BinOp(
                    op="<>",
                    left=ast.Var(name=var),
                    right=symexpr_to_ast(expr),
                ),
            )
    else:
        indep_cond = _mask_cond(candidate, var, complement=True)

    # Copy loops over the remaining dimensions.
    other_vars: List[str] = []
    indices: List[ast.Expr] = []
    for dim_index in range(decl.rank):
        if dim_index == position:
            indices.append(ast.Var(name=var))
        else:
            copy_var = f"{var}_m{dim_index}"
            other_vars.append(copy_var)
            indices.append(ast.Var(name=copy_var))

    def copy_stmt(source: str) -> ast.Stmt:
        inner: ast.Stmt = ast.Assign(
            target=ast.ArrayRef(name=array, indices=copy.deepcopy(indices)),
            value=ast.ArrayRef(name=source, indices=copy.deepcopy(indices)),
        )
        for dim_index in reversed(range(decl.rank)):
            if dim_index == position:
                continue
            dim = decl.dims[dim_index]
            inner = ast.DoLoop(
                var=f"{var}_m{dim_index}",
                ranges=[
                    ast.DoRange(
                        lo=copy.deepcopy(dim.lo), hi=copy.deepcopy(dim.hi)
                    )
                ],
                body=[inner],
            )
        return inner

    body: List[ast.Stmt] = [
        ast.If(
            cond=indep_cond,
            then_body=[copy_stmt(indep_name)],
            else_body=[copy_stmt(dep_name)],
        )
    ]
    return ast.DoLoop(
        var=var,
        ranges=[copy.deepcopy(r) for r in level.ranges],
        body=body,
    )
