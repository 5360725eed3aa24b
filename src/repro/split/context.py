"""Split-transformation context: re-analysis and fresh-name support.

The split transformation synthesises new code (restricted loops, replicated
accumulators, merge loops).  Descriptors for synthesised fragments are
obtained by re-running the Section 3.1 analysis pipeline over a synthetic
unit that shares the original unit's declarations — the same machinery the
compiler would use, applied to the transformed program.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Sequence, Tuple

from ..analysis import AnalysisResult, analyze_unit
from ..descriptors import Descriptor, DescriptorBuilder
from ..descriptors.guards import Guard, TRUE_GUARD
from ..lang import ast, print_stmts


def clone_stmts(stmts: Sequence[ast.Stmt]) -> List[ast.Stmt]:
    """Deep-copy statements so transformations never mutate the input AST."""
    return [copy.deepcopy(s) for s in stmts]


def _free_reads(node: ast.Node, bound: FrozenSet[str] = frozenset()) -> Set[str]:
    """Names used in ``node`` outside every loop over them (``bound``
    holds the enclosing loops' indices)."""
    if isinstance(node, ast.Var):
        return set() if node.name in bound else {node.name}
    children = list(node.children())
    if isinstance(node, ast.DoLoop):
        ranges = set().union(*(_free_reads(r, bound) for r in node.ranges))
        bound = bound | {node.var}
        children = [c for c in children if not isinstance(c, ast.DoRange)]
        return ranges.union(*(_free_reads(c, bound) for c in children))
    return set().union(*(_free_reads(c, bound) for c in children))


class SplitContext:
    """Shared state for one application of split.

    Owns the unit's declarations (extended with fresh variables created
    during the transformation) and provides descriptor construction for
    arbitrary statement fragments via re-analysis.
    """

    def __init__(self, unit: ast.Unit):
        self.unit = unit
        #: Declarations visible to synthesised code; grows as fresh
        #: variables are created.
        self.decls: List[ast.Decl] = list(unit.decls)
        self._names = {d.name for d in unit.decls}
        self._names.update(unit.params)
        indices = set()
        for node in unit.walk():
            if isinstance(node, ast.Var):
                self._names.add(node.name)
            elif isinstance(node, ast.DoLoop):
                indices.add(node.var)
        self._names |= indices
        self.indices = frozenset(indices)
        #: Loop indices read after a loop over them: their loops write
        #: them (any other loop's index is private to it).
        self.exit_live = frozenset(indices & _free_reads(unit))
        self._counter = 0
        #: (fragment text, declaration count) -> its analysis.  Split
        #: and codegen ask about the same loop several times over.
        self._analyses: Dict[Tuple[str, int], AnalysisResult] = {}

    # -- fresh names -----------------------------------------------------------

    def fresh_scalar(self, base: str, base_type: str = "real") -> str:
        """A new scalar name derived from ``base``, declared in context."""
        name = self._fresh_name(base)
        self.decls.append(ast.Decl(name=name, base_type=base_type))
        return name

    def fresh_array_like(self, template: str) -> str:
        """A new array with the same shape/type as ``template``."""
        source = next(d for d in self.decls if d.name == template)
        name = self._fresh_name(template)
        self.decls.append(
            ast.Decl(
                name=name,
                base_type=source.base_type,
                dims=[copy.deepcopy(d) for d in source.dims],
            )
        )
        return name

    def _fresh_name(self, base: str) -> str:
        candidate = f"{base}{self._suffix()}"
        while candidate in self._names:
            candidate = f"{base}{self._suffix()}"
        self._names.add(candidate)
        return candidate

    def _suffix(self) -> str:
        self._counter += 1
        return str(self._counter)

    def decl_for(self, name: str) -> Optional[ast.Decl]:
        for decl in self.decls:
            if decl.name == name:
                return decl
        return None

    # -- re-analysis ----------------------------------------------------------------

    def analyse(self, stmts: Sequence[ast.Stmt]) -> AnalysisResult:
        """Analyse a statement fragment under the context's declarations.

        One analysis per distinct (fragment text, declarations): callers
        read the result and build descriptors from it, none edits it.
        ``decls`` only ever grows, so its length names its content.
        """
        key = (print_stmts(stmts), len(self.decls))
        analysis = self._analyses.get(key)
        if analysis is None:
            synthetic = ast.Program(
                name="__split_fragment__",
                params=list(self.unit.params),
                decls=[copy.deepcopy(d) for d in self.decls],
                body=clone_stmts(stmts),
            )
            analysis = self._analyses[key] = analyze_unit(synthetic)
        return analysis

    def builder_for(self, stmts: Sequence[ast.Stmt]) -> "FragmentBuilder":
        """A descriptor builder over the analysis of ``stmts``.

        The returned builder's positional statement list mirrors the input
        (``fragment.body[i]`` corresponds to ``stmts[i]``), so callers index
        by position rather than by node identity.
        """
        analysis = self.analyse(stmts)
        return FragmentBuilder(analysis, self.exit_live)

    def descriptor_of(
        self, stmts: Sequence[ast.Stmt], extra_guard: Guard = TRUE_GUARD
    ) -> Descriptor:
        """Descriptor of a synthesised fragment (via re-analysis)."""
        builder = self.builder_for(stmts)
        return builder.builder.region(builder.analysis.unit.body, extra_guard)


@dataclass(eq=False)
class FragmentBuilder:
    """Pairs an analysis of a synthetic fragment with its builder."""

    analysis: AnalysisResult
    exit_live: FrozenSet[str] = frozenset()
    builder: DescriptorBuilder = field(init=False)

    def __post_init__(self):
        self.builder = DescriptorBuilder(
            self.analysis, exit_live=self.exit_live
        )

    @property
    def body(self) -> List[ast.Stmt]:
        return self.analysis.unit.body
