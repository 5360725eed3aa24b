"""Dataflow graph construction from analysed MiniF programs (Section 3.4).

``dataflow_of`` turns a program unit into a Delirium graph: one operator
per primitive computation, data-parallel operators for loops whose
iterations are independent (modulo reductions), and edges for every flow
dependence (plus serialisation edges for anti/output dependences, which
the runtime honours by ordering).

``split_into_graph`` and ``pipeline_into_graph`` wire the results of the
split transformation into graph form: C_I runs concurrently with the
target computation, C_D after it, C_M after both — and for pipelines the
A_I/A_D/A_M stages are tagged so the executor can overlap iterations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..descriptors import flow_interfere, interfere
from ..lang import ast
from ..split import (
    LOOP,
    Primitive,
    SplitContext,
    decompose,
    find_reductions,
)
from ..split.heuristics import estimated_weight
from ..split.loop_split import iterations_independent_modulo_reductions
from ..split.pipeline import PipelineResult
from ..split.transform import SplitResult
from .graph import PARALLEL, SEQUENTIAL, DataflowGraph, OpNode


def _op_from_primitive(
    graph: DataflowGraph,
    primitive: Primitive,
    context: SplitContext,
    name: str,
) -> OpNode:
    """Create an operator node for one primitive computation."""
    kind = SEQUENTIAL
    task_var = None
    task_ranges: List[ast.DoRange] = []
    task_body: List[ast.Stmt] = []
    where = None
    loop = primitive.loop
    if loop is not None:
        fragment = context.builder_for([loop])
        root = fragment.body[0]
        accumulators = find_reductions(root)
        if iterations_independent_modulo_reductions(
            root, fragment.builder, accumulators
        ):
            kind = PARALLEL
            task_var = loop.var
            task_ranges = loop.ranges
            task_body = loop.body
            where = loop.where
    scalars_out = primitive.descriptor.blocks_written()
    scalars_in = primitive.descriptor.blocks_read()
    node = graph.add_node(
        name,
        kind=kind,
        stmts=list(primitive.stmts),
        inputs=sorted(scalars_in),
        outputs=sorted(scalars_out),
        task_var=task_var,
        task_ranges=list(task_ranges),
        task_body=list(task_body),
        where=where,
        cost_hint=max(estimated_weight(primitive), 1.0),
    )
    return node


def dataflow_of(
    unit: ast.Unit, context: Optional[SplitContext] = None
) -> Tuple[DataflowGraph, List[Primitive]]:
    """Build the coarse-grained dataflow graph of ``unit``'s body."""
    if context is None:
        context = SplitContext(unit)
    primitives = decompose(unit.body, context)
    graph = DataflowGraph(name=unit.name or "main")
    nodes: List[OpNode] = []
    for index, primitive in enumerate(primitives):
        nodes.append(
            _op_from_primitive(graph, primitive, context, name=f"op{index}")
        )
    _wire_dependences(graph, primitives, nodes)
    return graph, primitives


def _wire_dependences(
    graph: DataflowGraph,
    primitives: Sequence[Primitive],
    nodes: Sequence[OpNode],
) -> None:
    for j, consumer in enumerate(primitives):
        for i in range(j):
            producer = primitives[i]
            if flow_interfere(producer.descriptor, consumer.descriptor):
                blocks = producer.descriptor.blocks_written() & (
                    consumer.descriptor.blocks_read()
                )
                for block in sorted(blocks) or ["#flow"]:
                    _add_edge_once(graph, nodes[i], nodes[j], block)
            elif interfere(producer.descriptor, consumer.descriptor):
                # Anti/output dependence: order-only edge.
                _add_edge_once(graph, nodes[i], nodes[j], "#order")


def _add_edge_once(
    graph: DataflowGraph, producer: OpNode, consumer: OpNode, block: str
) -> None:
    for edge in graph.edges:
        if (
            edge.producer == producer.id
            and edge.consumer == consumer.id
            and edge.block == block
        ):
            return
    graph.add_edge(producer, consumer, block)


# ---------------------------------------------------------------------------
# Wiring split results into graphs
# ---------------------------------------------------------------------------


def split_into_graph(
    graph: DataflowGraph,
    target_node: OpNode,
    source_node: OpNode,
    result: SplitResult,
    context: SplitContext,
    base_name: str = "c",
) -> Dict[str, Optional[OpNode]]:
    """Add C_I / C_D / C_M operators for a split computation.

    ``target_node`` is the operator whose descriptor the computation was
    split against, and ``source_node`` the operator of the computation
    itself.  Each part takes the source's edges: every producer's, except
    that C_I gets *no* edge from the target (it may run concurrently),
    and one to every consumer.  C_D depends on the target; C_M depends on
    whichever of the other two exist.
    """
    incoming = graph.in_edges(source_node)
    outgoing = graph.out_edges(source_node)
    created: Dict[str, Optional[OpNode]] = {"ci": None, "cd": None, "cm": None}

    def make(stmts: List[ast.Stmt], suffix: str) -> Optional[OpNode]:
        if not stmts:
            return None
        primitives = decompose(stmts, context)
        if len(primitives) == 1:
            node = _op_from_primitive(
                graph, primitives[0], context, name=f"{base_name}_{suffix}"
            )
        else:
            descriptor = context.descriptor_of(stmts)
            node = graph.add_node(
                f"{base_name}_{suffix}",
                kind=SEQUENTIAL,
                stmts=list(stmts),
                inputs=sorted(descriptor.blocks_read()),
                outputs=sorted(descriptor.blocks_written()),
                cost_hint=1.0,
            )
        return node

    created["ci"] = make(result.independent, "i")
    created["cd"] = make(result.dependent, "d")
    created["cm"] = make(result.merge, "m")

    for key, part in created.items():
        if part is None:
            continue
        for edge in incoming:
            if key != "ci" or edge.producer != target_node.id:
                producer = graph.nodes[edge.producer]
                _add_edge_once(graph, producer, part, edge.block)
        for edge in outgoing:
            consumer = graph.nodes[edge.consumer]
            _add_edge_once(graph, part, consumer, edge.block)
    if created["cd"] is not None:
        shared = set(target_node.outputs) & set(created["cd"].inputs)
        for block in sorted(shared) or ["#flow"]:
            _add_edge_once(graph, target_node, created["cd"], block)
    if created["cm"] is not None:
        for key in ("ci", "cd"):
            node = created[key]
            if node is not None:
                shared = set(node.outputs) & set(created["cm"].inputs)
                for block in sorted(shared) or ["#flow"]:
                    _add_edge_once(graph, node, created["cm"], block)
    return created


def pipeline_into_graph(
    graph: DataflowGraph,
    result: PipelineResult,
    context: SplitContext,
    loop_id: int,
    base_name: str = "a",
) -> Dict[str, Optional[OpNode]]:
    """Add tagged A_I / A_D / A_M stage operators for a pipelined loop.

    The executor recognises the ``pipeline_role`` tags and overlaps
    iteration ``i``'s A_I with iteration ``i-1``'s A_D/A_M.
    """
    created: Dict[str, Optional[OpNode]] = {"ai": None, "ad": None, "am": None}

    def make(stmts: List[ast.Stmt], role: str, suffix: str) -> Optional[OpNode]:
        if not stmts:
            return None
        descriptor = context.descriptor_of(stmts)
        node = graph.add_node(
            f"{base_name}_{suffix}",
            kind=PARALLEL,
            stmts=list(stmts),
            inputs=sorted(descriptor.blocks_read()),
            outputs=sorted(descriptor.blocks_written()),
            task_var=result.loop.var,
            task_ranges=list(result.loop.ranges),
            where=result.loop.where,
            cost_hint=1.0,
            pipeline_role=(role, loop_id),
        )
        return node

    created["ai"] = make(result.independent, "AI", "i")
    created["ad"] = make(result.dependent, "AD", "d")
    created["am"] = make(result.merge, "AM", "m")

    if created["am"] is not None:
        for key in ("ai", "ad"):
            node = created[key]
            if node is not None:
                shared = set(node.outputs) & set(created["am"].inputs)
                for block in sorted(shared) or ["#flow"]:
                    _add_edge_once(graph, node, created["am"], block)
    return created
