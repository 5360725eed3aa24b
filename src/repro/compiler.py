"""The end-to-end compiler driver.

Mirrors the paper's toolchain: parse the (MiniF-flavoured) FORTRAN input,
run the Section 3.1 symbolic analysis, apply split where interacting
primitive computations allow it, attempt pipelining on guarded loops, and
emit the three output forms of Section 3.4 — the Delirium coordination
graph, the transformed source sections, and the data-size annotations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .analysis import AnalysisResult, analyze_unit
from .delirium import (
    DataflowGraph,
    GraphAnnotations,
    annotate_graph,
    dataflow_of,
    emit,
    pipeline_into_graph,
    split_into_graph,
)
from .descriptors import DescriptorBuilder, interfere
from .lang import ast, parse, print_stmts
from .split import (
    PipelineResult,
    ReadLinkedHeuristic,
    SplitContext,
    SplitResult,
    decompose,
    pipeline_loop,
    split_computation,
)


@dataclass
class AppliedSplit:
    """A split the driver applied: primitive ``target_index`` supplied the
    descriptor; ``source_index`` was split into C_I/C_D/C_M."""

    target_index: int
    source_index: int
    result: SplitResult


@dataclass
class AppliedPipeline:
    loop_index: int
    result: PipelineResult


@dataclass
class CompiledProgram:
    """Everything the compiler produces for one program unit."""

    unit: ast.Unit
    analysis: AnalysisResult
    graph: DataflowGraph
    annotations: GraphAnnotations
    delirium_text: str
    splits: List[AppliedSplit] = field(default_factory=list)
    pipelines: List[AppliedPipeline] = field(default_factory=list)

    def transformed_sections(self) -> Dict[str, str]:
        """The FORTRAN sections, by operator name (Section 3.4's second
        output form)."""
        sections: Dict[str, str] = {}
        for node in self.graph.nodes:
            if node.stmts:
                sections[node.name] = print_stmts(node.stmts)
        return sections

    def report(self) -> str:
        lines = [
            f"unit {self.unit.name}: {len(self.graph.nodes)} operators, "
            f"{len(self.graph.edges)} edges"
        ]
        for applied in self.splits:
            lines.append(
                f"  split primitive {applied.source_index} against "
                f"primitive {applied.target_index}"
            )
            lines.append("    " + applied.result.report.summary().replace("\n", "\n    "))
        for applied in self.pipelines:
            status = "ok" if applied.result.succeeded else "no independent part"
            lines.append(f"  pipelined loop {applied.loop_index}: {status}")
        return "\n".join(lines)


def compile_unit(
    unit: ast.Unit,
    apply_splits: bool = True,
    apply_pipelining: bool = True,
    heuristic: Optional[ReadLinkedHeuristic] = None,
) -> CompiledProgram:
    """Compile one program unit through the full pipeline."""
    analysis = analyze_unit(unit)
    context = SplitContext(unit)
    primitives = decompose(unit.body, context)
    graph, graph_primitives = dataflow_of(unit, SplitContext(unit))
    splits: List[AppliedSplit] = []
    pipelines: List[AppliedPipeline] = []

    if apply_splits:
        # For each interfering (earlier, later) primitive pair, try to
        # split the later computation against the earlier's descriptor.
        already_split = set()
        for later_index in range(len(primitives)):
            if later_index in already_split:
                continue
            later = primitives[later_index]
            for earlier_index in range(later_index):
                earlier = primitives[earlier_index]
                if not interfere(earlier.descriptor, later.descriptor):
                    continue
                result = split_computation(
                    later.stmts,
                    earlier.descriptor,
                    unit,
                    context=context,
                    heuristic=heuristic,
                )
                if result.is_trivial:
                    continue
                splits.append(
                    AppliedSplit(
                        target_index=earlier_index,
                        source_index=later_index,
                        result=result,
                    )
                )
                split_into_graph(
                    graph,
                    graph.nodes[earlier_index],
                    graph.nodes[later_index],
                    result,
                    context,
                    base_name=f"op{later_index}",
                )
                already_split.add(later_index)
                break

    if apply_pipelining:
        from .descriptors import loop_iterations_independent

        builder = DescriptorBuilder(analysis)
        for index, primitive in enumerate(primitives):
            loop = primitive.loop
            if loop is None:
                continue
            if loop_iterations_independent(loop, builder):
                continue  # already fully parallel; nothing to pipeline
            result = pipeline_loop(loop, unit, depth=1, context=context)
            if result.succeeded:
                pipelines.append(AppliedPipeline(loop_index=index, result=result))
                pipeline_into_graph(
                    graph, result, context, loop_id=index, base_name=f"loop{index}"
                )

    annotations = annotate_graph(graph, unit)
    return CompiledProgram(
        unit=unit,
        analysis=analysis,
        graph=graph,
        annotations=annotations,
        delirium_text=emit(graph),
        splits=splits,
        pipelines=pipelines,
    )


def compile_source(
    source: str,
    apply_splits: bool = True,
    apply_pipelining: bool = True,
) -> List[CompiledProgram]:
    """Compile every unit in a MiniF source file."""
    file = parse(source)
    return [
        compile_unit(unit, apply_splits, apply_pipelining)
        for unit in file.units
    ]
