"""Abstract syntax tree for MiniF.

All nodes are dataclasses with ``eq=False`` so that they hash by identity;
the analyses in :mod:`repro.analysis` key tables on AST node identity (two
textually identical statements are distinct program points).

The tree deliberately mirrors the constructs used in the paper's figures:

* ``do col = 1, n where (mask(col) <> 0)`` — Figure 1's guarded loop,
* ``do i = 1, col-2 and col, n`` — Figure 3's discontinuous range,
* array declarations with symbolic bounds (``real q(n, n)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple, Union

from .errors import SourceLocation


@dataclass(eq=False)
class Node:
    """Base class for all AST nodes."""

    loc: Optional[SourceLocation] = field(default=None, repr=False, kw_only=True)

    def children(self) -> Iterator["Node"]:
        """Yield direct child nodes, in source order."""
        return iter(())

    def walk(self) -> Iterator["Node"]:
        """Yield this node and all descendants, preorder."""
        yield self
        for child in self.children():
            yield from child.walk()


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Expr(Node):
    """Base class for expressions."""


@dataclass(eq=False)
class IntLit(Expr):
    value: int


@dataclass(eq=False)
class FloatLit(Expr):
    value: float


@dataclass(eq=False)
class StringLit(Expr):
    value: str


@dataclass(eq=False)
class Var(Expr):
    """A scalar variable reference (or array name used as a whole)."""

    name: str


@dataclass(eq=False)
class ArrayRef(Expr):
    """An element reference ``name(i, j, ...)``."""

    name: str
    indices: List[Expr]

    def children(self) -> Iterator[Node]:
        return iter(self.indices)


@dataclass(eq=False)
class Call(Expr):
    """A function call in expression position."""

    name: str
    args: List[Expr]

    def children(self) -> Iterator[Node]:
        return iter(self.args)


#: Binary operator spellings, as stored in :class:`BinOp`.
BINARY_OPS = ("+", "-", "*", "/", "==", "<>", "<", "<=", ">", ">=", "and", "or")
COMPARISON_OPS = ("==", "<>", "<", "<=", ">", ">=")
#: Map each comparison to its negation, used when propagating branch
#: conditions down the false edge (Section 3.1, step 6).
NEGATED_COMPARISON = {
    "==": "<>",
    "<>": "==",
    "<": ">=",
    "<=": ">",
    ">": "<=",
    ">=": "<",
}


@dataclass(eq=False)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def children(self) -> Iterator[Node]:
        yield self.left
        yield self.right


@dataclass(eq=False)
class UnOp(Expr):
    op: str  # "-" or "not"
    operand: Expr

    def children(self) -> Iterator[Node]:
        yield self.operand


LValue = Union[Var, ArrayRef]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Stmt(Node):
    """Base class for statements."""


@dataclass(eq=False)
class Assign(Stmt):
    target: LValue
    value: Expr

    def children(self) -> Iterator[Node]:
        yield self.target
        yield self.value


@dataclass(eq=False)
class DoRange(Node):
    """One contiguous piece of a ``do`` header: ``lo, hi [, step]``."""

    lo: Expr
    hi: Expr
    step: Optional[Expr] = None

    def children(self) -> Iterator[Node]:
        yield self.lo
        yield self.hi
        if self.step is not None:
            yield self.step


@dataclass(eq=False)
class DoLoop(Stmt):
    """A ``do`` loop, possibly with multiple ranges and a ``where`` guard.

    ``do i = 1, a-1 and a+1, n where (p(i) <> 0)`` parses to two ranges and
    a guard; the loop body runs for each value in the union of the ranges
    for which the guard holds (the paper's ``do ... where`` shorthand for an
    ``if`` wrapping the whole body).
    """

    var: str
    ranges: List[DoRange]
    body: List[Stmt]
    where: Optional[Expr] = None

    def children(self) -> Iterator[Node]:
        yield from self.ranges
        if self.where is not None:
            yield self.where
        yield from self.body


@dataclass(eq=False)
class If(Stmt):
    cond: Expr
    then_body: List[Stmt]
    else_body: List[Stmt] = field(default_factory=list)

    def children(self) -> Iterator[Node]:
        yield self.cond
        yield from self.then_body
        yield from self.else_body


@dataclass(eq=False)
class CallStmt(Stmt):
    """A ``call name(args)`` statement (subroutine invocation)."""

    name: str
    args: List[Expr]

    def children(self) -> Iterator[Node]:
        return iter(self.args)


@dataclass(eq=False)
class Return(Stmt):
    value: Optional[Expr] = None

    def children(self) -> Iterator[Node]:
        if self.value is not None:
            yield self.value


# ---------------------------------------------------------------------------
# Declarations and program units
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class DimSpec(Node):
    """One array dimension ``lo:hi`` (``lo`` defaults to 1)."""

    lo: Expr
    hi: Expr

    def children(self) -> Iterator[Node]:
        yield self.lo
        yield self.hi


@dataclass(eq=False)
class Decl(Node):
    """A variable declaration; ``dims`` is empty for scalars."""

    name: str
    base_type: str  # "integer" | "real" | "logical"
    dims: List[DimSpec] = field(default_factory=list)

    @property
    def is_array(self) -> bool:
        return bool(self.dims)

    @property
    def rank(self) -> int:
        return len(self.dims)

    def children(self) -> Iterator[Node]:
        return iter(self.dims)


@dataclass(eq=False)
class Unit(Node):
    """Base class for program units."""

    name: str = ""
    params: List[str] = field(default_factory=list)
    decls: List[Decl] = field(default_factory=list)
    body: List[Stmt] = field(default_factory=list)

    def children(self) -> Iterator[Node]:
        yield from self.decls
        yield from self.body

    def decl_for(self, name: str) -> Optional[Decl]:
        """Look up the declaration of ``name`` in this unit, if any."""
        for decl in self.decls:
            if decl.name == name:
                return decl
        return None

    def arrays(self) -> List[Decl]:
        """All array declarations, in declaration order."""
        return [d for d in self.decls if d.is_array]


@dataclass(eq=False)
class Program(Unit):
    """The main program unit."""


@dataclass(eq=False)
class Subroutine(Unit):
    """A subroutine (no return value)."""


@dataclass(eq=False)
class Function(Unit):
    """A function; the return value is assigned to the function's name."""

    result_type: str = "real"


@dataclass(eq=False)
class SourceFile(Node):
    """A parsed source file: one or more program units."""

    units: List[Unit] = field(default_factory=list)

    def children(self) -> Iterator[Node]:
        return iter(self.units)

    @property
    def main(self) -> Optional[Program]:
        for unit in self.units:
            if isinstance(unit, Program):
                return unit
        return None

    def unit_named(self, name: str) -> Optional[Unit]:
        for unit in self.units:
            if unit.name == name:
                return unit
        return None


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


def variables_read(expr: Expr) -> List[str]:
    """Names of scalar variables read by ``expr`` (array index variables
    included; array base names excluded — aggregate accesses are tracked
    separately by the descriptor machinery)."""
    names: List[str] = []
    for node in expr.walk():
        if isinstance(node, Var):
            names.append(node.name)
    return names


def array_refs(node: Node) -> List[ArrayRef]:
    """All :class:`ArrayRef` nodes in ``node``, preorder."""
    return [n for n in node.walk() if isinstance(n, ArrayRef)]


def calls_in(node: Node) -> List[Tuple[str, List[Expr]]]:
    """All calls (expression calls and call statements) under ``node``."""
    out: List[Tuple[str, List[Expr]]] = []
    for n in node.walk():
        if isinstance(n, Call):
            out.append((n.name, n.args))
        elif isinstance(n, CallStmt):
            out.append((n.name, n.args))
    return out
