"""Delirium text form, codegen, and annotation tests."""

import pytest

from repro.analysis import analyze_unit
from repro.delirium import (
    PARALLEL,
    SEQUENTIAL,
    DataflowGraph,
    annotate_graph,
    dataflow_of,
    emit,
    parse,
    pipeline_into_graph,
    split_into_graph,
)
from repro.delirium.language import DeliriumSyntaxError
from repro.descriptors import DescriptorBuilder
from repro.lang import parse_unit
from repro.split import SplitContext, pipeline_loop, split_computation

PIPE_SOURCE = """
program two_stage
  integer i, n
  real x(n), y(n), z(n)
  do i = 1, n
    x(i) = 1
  end do
  do i = 1, n
    y(i) = x(i) * 2
  end do
  do i = 1, n
    z(i) = 9
  end do
end program
"""


def test_dataflow_of_builds_nodes_and_edges():
    unit = parse_unit(PIPE_SOURCE)
    graph, primitives = dataflow_of(unit)
    assert len(graph.nodes) == 3
    # x-producer feeds y-consumer.
    edge_blocks = {(e.producer, e.consumer): e.block for e in graph.edges}
    assert (0, 1) in edge_blocks
    assert edge_blocks[(0, 1)] == "x"


def test_independent_loops_are_parallel_ops():
    unit = parse_unit(PIPE_SOURCE)
    graph, _ = dataflow_of(unit)
    assert all(n.kind == PARALLEL for n in graph.nodes)
    assert graph.nodes[0].task_var == "i"


def test_unrelated_op_is_concurrent():
    unit = parse_unit(PIPE_SOURCE)
    graph, _ = dataflow_of(unit)
    pairs = graph.concurrent_pairs()
    names = {(a.name, b.name) for a, b in pairs}
    assert ("op0", "op2") in names


def test_sequential_dependent_loop():
    unit = parse_unit(
        """
program seq
  integer i, n
  real x(n)
  real s
  s = 0
  do i = 1, n
    s = s + x(i)
    x(i) = s
  end do
end program
"""
    )
    graph, _ = dataflow_of(unit)
    loop_node = graph.nodes[1]
    assert loop_node.kind == SEQUENTIAL


def test_reduction_loop_still_parallel():
    unit = parse_unit(
        """
program red
  integer i, n
  real x(n), s
  s = 0
  do i = 1, n
    s = s + x(i)
  end do
end program
"""
    )
    graph, _ = dataflow_of(unit)
    loop_node = graph.nodes[1]
    assert loop_node.kind == PARALLEL


# -- text form --------------------------------------------------------------------


def test_emit_parse_round_trip():
    unit = parse_unit(PIPE_SOURCE)
    graph, _ = dataflow_of(unit)
    text = emit(graph)
    parsed = parse(text)
    assert parsed.name == graph.name
    assert [n.name for n in parsed.nodes] == [n.name for n in graph.nodes]
    assert [n.kind for n in parsed.nodes] == [n.kind for n in graph.nodes]
    assert {(e.producer, e.consumer, e.block) for e in parsed.edges} == {
        (e.producer, e.consumer, e.block) for e in graph.edges
    }


def test_emit_includes_where_guard():
    unit = parse_unit(
        """
program guarded
  integer mask(n), i, n
  real x(n)
  do i = 1, n where (mask(i) <> 0)
    x(i) = 0
  end do
end program
"""
    )
    graph, _ = dataflow_of(unit)
    text = emit(graph)
    assert "where" in text
    parsed = parse(text)
    assert parsed.nodes[0].where is not None


def test_parse_rejects_unknown_operator_kind():
    with pytest.raises(DeliriumSyntaxError):
        parse("(graph g (op a weird))")


def test_parse_rejects_edge_to_unknown_op():
    with pytest.raises(DeliriumSyntaxError):
        parse("(graph g (op a parallel) (edge a b x))")


def test_parse_rejects_duplicate_ops():
    with pytest.raises(DeliriumSyntaxError):
        parse("(graph g (op a parallel) (op a parallel))")


# -- annotations --------------------------------------------------------------------


def test_annotations_constant_sizes():
    unit = parse_unit(
        """
program sized
  integer i
  real x(100), y(100)
  do i = 1, 100
    x(i) = 1
  end do
  do i = 1, 100
    y(i) = x(i)
  end do
end program
"""
    )
    graph, _ = dataflow_of(unit)
    annotations = annotate_graph(graph, unit)
    x_annotation = annotations.by_block["x"]
    assert x_annotation.elements.constant_value() == 100
    assert x_annotation.element_bytes == 8
    edge = graph.edges[0]
    assert annotations.edge_bytes(edge, {}) == 800.0


def test_annotations_symbolic_sizes():
    unit = parse_unit(PIPE_SOURCE)
    graph, _ = dataflow_of(unit)
    annotations = annotate_graph(graph, unit)
    x_annotation = annotations.by_block["x"]
    assert x_annotation.bytes_under({"n": 50}) == 400.0


# -- split / pipeline wiring -----------------------------------------------------------


def test_split_into_graph_wiring():
    source = """
program fig4
  integer i, j, a, n
  real x(n, n), y(n)
  real sum
  do i = 1, n
    x(a, i) = x(a, i) + y(i)
  end do
  sum = 0
  do i = 1, n
    do j = 1, n
      sum = sum + x(j, i)
    end do
  end do
end program
"""
    unit = parse_unit(source)
    analysis = analyze_unit(unit)
    builder = DescriptorBuilder(analysis)
    d_g = builder.region(unit.body[:1])
    result = split_computation(unit.body[1:], d_g, unit)
    context = result.context
    graph = DataflowGraph("fig4")
    g_node = graph.add_node(
        "g", kind=PARALLEL, outputs=["x"], inputs=["x", "y"]
    )
    source_node = graph.add_node("s", inputs=["x"], outputs=["sum"])
    before = graph.add_node("before", outputs=["y"])
    after = graph.add_node("after", inputs=["sum"])
    graph.add_edge(g_node, source_node, "x")
    graph.add_edge(before, source_node, "y")
    graph.add_edge(source_node, after, "sum")
    created = split_into_graph(graph, g_node, source_node, result, context)
    assert created["ci"] is not None
    assert created["cd"] is not None
    assert created["cm"] is not None
    # C_I concurrent with G; C_D after G; C_M after C_I and C_D.
    pairs = {(a.name, b.name) for a, b in graph.concurrent_pairs()}
    assert ("g", created["ci"].name) in pairs or (
        created["ci"].name,
        "g",
    ) in pairs
    cd_preds = {n.name for n in graph.predecessors(created["cd"])}
    assert "g" in cd_preds
    cm_preds = {n.name for n in graph.predecessors(created["cm"])}
    assert created["cd"].name in cm_preds
    assert created["ci"].name in cm_preds
    # Every part takes the source's edges, but C_I none from G.
    for part in created.values():
        preds = {n.name for n in graph.predecessors(part)}
        assert "before" in preds
        assert ("g" in preds) == (part is not created["ci"])
        assert "after" in {n.name for n in graph.successors(part)}


def test_pipeline_into_graph_tags_stages():
    source = """
program fig3
  integer mask(n), col, i, k, n
  real result(n), q(n, n)
  do col = 1, n where (mask(col) <> 0)
    do i = 1, n
      result(i) = 0
      do k = 1, n
        result(i) = result(i) + q(k, i)
      end do
    end do
    do i = 1, n
      q(i, col) = result(i)
    end do
  end do
end program
"""
    unit = parse_unit(source)
    loop = unit.body[0]
    result = pipeline_loop(loop, unit, depth=1)
    graph = DataflowGraph("fig3")
    created = pipeline_into_graph(graph, result, result.context, loop_id=0)
    assert created["ai"].pipeline_role == ("AI", 0)
    assert created["ad"].pipeline_role == ("AD", 0)
    assert created["am"].pipeline_role == ("AM", 0)
    am_preds = {n.name for n in graph.predecessors(created["am"])}
    assert created["ai"].name in am_preds
