"""Symbolic expressions and ranges (Section 3.1 of the paper).

The paper limits symbolic expressions to "a sum that may include a set of
SSA names, each with an integer coefficient, and a constant (either integer
or floating point)".  :class:`SymExpr` implements exactly that affine form.
A *symbolic value* is either a :class:`SymExpr` or a :class:`SymRange`
(start/end expressions plus an integer skip).

Expressions are immutable and normalised (terms sorted by name, zero
coefficients dropped), so structural equality is semantic equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

from ..lang import ast

Number = Union[int, float]


@dataclass(frozen=True)
class SymExpr:
    """An affine symbolic expression: ``sum(coef_i * name_i) + const``.

    ``terms`` is a sorted tuple of ``(name, coefficient)`` pairs with
    non-zero integer coefficients.  Names are strings — in practice SSA
    names rendered as ``base#version``, loop induction variables, or free
    program symbols such as array bounds.
    """

    terms: Tuple[Tuple[str, int], ...] = ()
    const: Number = 0

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value: Number) -> "SymExpr":
        return SymExpr((), value)

    @staticmethod
    def var(name: str, coef: int = 1) -> "SymExpr":
        if coef == 0:
            return SymExpr()
        return SymExpr(((name, coef),), 0)

    @staticmethod
    def _normalise(terms: Mapping[str, int], const: Number) -> "SymExpr":
        cleaned = tuple(
            sorted((n, c) for n, c in terms.items() if c != 0)
        )
        return SymExpr(cleaned, const)

    # -- queries -------------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        return not self.terms

    def constant_value(self) -> Optional[Number]:
        """The numeric value if constant, else ``None``."""
        if self.is_constant:
            return self.const
        return None

    def names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.terms)

    def coefficient(self, name: str) -> int:
        for n, c in self.terms:
            if n == name:
                return c
        return 0

    def mentions(self, name: str) -> bool:
        return self.coefficient(name) != 0

    # -- arithmetic -----------------------------------------------------------

    def _term_dict(self) -> Dict[str, int]:
        return dict(self.terms)

    def __add__(self, other: Union["SymExpr", Number]) -> "SymExpr":
        other = _coerce(other)
        terms = self._term_dict()
        for name, coef in other.terms:
            terms[name] = terms.get(name, 0) + coef
        return SymExpr._normalise(terms, self.const + other.const)

    def __radd__(self, other: Number) -> "SymExpr":
        return self.__add__(other)

    def __sub__(self, other: Union["SymExpr", Number]) -> "SymExpr":
        return self.__add__(_coerce(other).__neg__())

    def __rsub__(self, other: Number) -> "SymExpr":
        return _coerce(other).__sub__(self)

    def __neg__(self) -> "SymExpr":
        return SymExpr(
            tuple((n, -c) for n, c in self.terms), -self.const
        )

    def scale(self, factor: int) -> "SymExpr":
        """Multiply by an integer factor."""
        if factor == 0:
            return SymExpr()
        return SymExpr(
            tuple((n, c * factor) for n, c in self.terms),
            self.const * factor,
        )

    def __mul__(self, other: Union["SymExpr", Number]) -> "SymExpr":
        """Multiply; at most one side may be non-constant (affine closure)."""
        other = _coerce(other)
        if other.is_constant:
            value = other.const
            if isinstance(value, int):
                return self.scale(value)
            if self.is_constant:
                return SymExpr.constant(self.const * value)
            raise NonAffineError("float coefficient on symbolic term")
        if self.is_constant and isinstance(self.const, int):
            return other.scale(self.const)
        raise NonAffineError("product of two symbolic expressions")

    def __rmul__(self, other: Number) -> "SymExpr":
        return self.__mul__(other)

    # -- substitution and evaluation -------------------------------------------

    def substitute(self, bindings: Mapping[str, "SymExpr"]) -> "SymExpr":
        """Replace each named term that has a binding with its expression."""
        result = SymExpr.constant(self.const)
        for name, coef in self.terms:
            replacement = bindings.get(name)
            if replacement is None:
                result = result + SymExpr.var(name, coef)
            else:
                result = result + replacement.scale(coef)
        return result

    def evaluate(self, env: Mapping[str, Number]) -> Number:
        """Numeric value under a complete environment.

        Raises ``KeyError`` when a name is unbound.
        """
        total: Number = self.const
        for name, coef in self.terms:
            total += coef * env[name]
        return total

    # -- rendering ---------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return str(self.const)
        parts = []
        for name, coef in self.terms:
            if coef == 1:
                parts.append(name)
            elif coef == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{coef}*{name}")
        text = " + ".join(parts).replace("+ -", "- ")
        if self.const:
            if isinstance(self.const, (int, float)) and self.const < 0:
                return f"{text} - {-self.const}"
            return f"{text} + {self.const}"
        return text


class NonAffineError(ValueError):
    """Raised when an operation would leave the affine fragment."""


def _coerce(value: Union[SymExpr, Number]) -> SymExpr:
    if isinstance(value, SymExpr):
        return value
    return SymExpr.constant(value)


ZERO = SymExpr.constant(0)
ONE = SymExpr.constant(1)


@dataclass(frozen=True)
class SymRange:
    """A symbolic range: start/end expressions with an integer skip.

    Matches the paper's definition of a range symbolic value.  Ranges are
    inclusive on both ends, like FORTRAN ``do`` bounds.
    """

    lo: SymExpr
    hi: SymExpr
    skip: int = 1

    @staticmethod
    def single(value: SymExpr) -> "SymRange":
        return SymRange(value, value, 1)

    @property
    def is_single(self) -> bool:
        return self.lo == self.hi

    def length(self) -> Optional[int]:
        """Number of points if statically known, else ``None``."""
        span = self.hi - self.lo
        value = span.constant_value()
        if value is None:
            return None
        if value < 0:
            return 0
        return int(value) // self.skip + 1

    def shift(self, delta: Union[SymExpr, Number]) -> "SymRange":
        delta = _coerce(delta)
        return SymRange(self.lo + delta, self.hi + delta, self.skip)

    def __str__(self) -> str:
        if self.is_single:
            return str(self.lo)
        if self.skip == 1:
            return f"{self.lo}..{self.hi}"
        return f"{self.lo}..{self.hi}:{self.skip}"


SymValue = Union[SymExpr, SymRange]


def expr_from_ast(
    expr: ast.Expr, env: Optional[Mapping[str, SymExpr]] = None
) -> Optional[SymExpr]:
    """Build a :class:`SymExpr` from a MiniF expression.

    ``env`` optionally maps variable names to known symbolic values (e.g.
    from value propagation); unbound variables become symbolic atoms of their
    own name.  Returns ``None`` when the expression leaves the affine
    fragment (array reads, calls, products of symbols, division by
    non-literal, floats in coefficients).
    """
    env = env or {}
    try:
        return _build(expr, env)
    except NonAffineError:
        return None


def _build(expr: ast.Expr, env: Mapping[str, SymExpr]) -> SymExpr:
    if isinstance(expr, ast.IntLit):
        return SymExpr.constant(expr.value)
    if isinstance(expr, ast.FloatLit):
        return SymExpr.constant(expr.value)
    if isinstance(expr, ast.Var):
        bound = env.get(expr.name)
        if bound is not None:
            return bound
        return SymExpr.var(expr.name)
    if isinstance(expr, ast.UnOp) and expr.op == "-":
        return -_build(expr.operand, env)
    if isinstance(expr, ast.BinOp):
        if expr.op == "+":
            return _build(expr.left, env) + _build(expr.right, env)
        if expr.op == "-":
            return _build(expr.left, env) - _build(expr.right, env)
        if expr.op == "*":
            return _build(expr.left, env) * _build(expr.right, env)
        if expr.op == "/":
            left = _build(expr.left, env)
            right = _build(expr.right, env)
            rv = right.constant_value()
            if rv is None or rv == 0:
                raise NonAffineError("division by symbolic expression")
            lv = left.constant_value()
            if lv is not None:
                if isinstance(lv, int) and isinstance(rv, int) and lv % rv == 0:
                    return SymExpr.constant(lv // rv)
                return SymExpr.constant(lv / rv)
            if isinstance(rv, int):
                # Exact division of every coefficient, else non-affine.
                if all(c % rv == 0 for _, c in left.terms) and (
                    isinstance(left.const, int) and left.const % rv == 0
                ):
                    return SymExpr(
                        tuple((n, c // rv) for n, c in left.terms),
                        left.const // rv,
                    )
            raise NonAffineError("inexact symbolic division")
        raise NonAffineError(f"operator {expr.op!r} is not affine")
    raise NonAffineError(f"{type(expr).__name__} is not affine")


def range_from_do(
    rng: ast.DoRange, env: Optional[Mapping[str, SymExpr]] = None
) -> Optional[SymRange]:
    """Build a :class:`SymRange` from a ``do`` range, if affine."""
    lo = expr_from_ast(rng.lo, env)
    hi = expr_from_ast(rng.hi, env)
    if lo is None or hi is None:
        return None
    skip = 1
    if rng.step is not None:
        step = expr_from_ast(rng.step, env)
        if step is None:
            return None
        value = step.constant_value()
        if value is None or not isinstance(value, int) or value <= 0:
            return None
        skip = value
    return SymRange(lo, hi, skip)


def compare(a: SymExpr, b: SymExpr) -> Optional[int]:
    """Three-way comparison when decidable: -1, 0, or 1; else ``None``.

    Decidable exactly when ``a - b`` is constant.
    """
    diff = (a - b).constant_value()
    if diff is None:
        return None
    if diff < 0:
        return -1
    if diff > 0:
        return 1
    return 0


def definitely_disjoint_ranges(a: SymRange, b: SymRange) -> bool:
    """True when the two ranges provably share no point.

    Conservative: returns ``False`` unless ``a.hi < b.lo`` or
    ``b.hi < a.lo`` is provable by constant difference.
    """
    if compare(a.hi, b.lo) == -1:
        return True
    if compare(b.hi, a.lo) == -1:
        return True
    return False

