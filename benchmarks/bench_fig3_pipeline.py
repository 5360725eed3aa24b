"""Figure 3: code after split and pipeline — A becomes A_I / A_D / A_M.

Regenerates the pipelined decomposition of the masked column loop and
benchmarks both the transformation and the simulated pipelined execution
against the non-pipelined schedule.
"""

import random

import pytest

from conftest import print_table
from repro.lang import parse_unit, print_stmts
from repro.runtime import MachineConfig, ParallelOp, PipelineIteration
from repro.runtime.executor import run_pipelined
from repro.split import pipeline_loop

FIG3 = """
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


def test_fig3_structure():
    unit = parse_unit(FIG3)
    result = pipeline_loop(unit.body[0], unit, depth=1)
    assert result.succeeded
    independent = print_stmts(result.independent)
    dependent = print_stmts(result.dependent)
    merge = print_stmts(result.merge)
    print_table(
        "Figure 3 — pipeline stage structure",
        ["stage", "paper", "ours (first line)"],
        [
            ["A_I", "do i = 1,col-2 and col,n", independent.splitlines()[0]],
            ["A_D", "compute prev column", dependent.splitlines()[0]],
            ["A_M", "glue + q updates", merge.splitlines()[0]],
        ],
        name="fig3_pipeline_structure",
    )
    assert "col - 2 and col, n" in independent
    assert "col - 1, col - 1" in dependent
    assert "q(i, col)" in merge
    assert "result" in result.privatized


def test_pipeline_execution_wins(benchmark):
    rng = random.Random(3)
    iterations = [
        PipelineIteration(
            independent=ParallelOp(
                name=f"ai{i}", costs=[rng.uniform(3, 7) for _ in range(1024)]
            ),
            dependent=ParallelOp(name=f"ad{i}", costs=[40.0]),
            merge=ParallelOp(name=f"am{i}", costs=[1.0] * 16),
        )
        for i in range(12)
    ]
    config = MachineConfig(processors=256)
    overlapped = benchmark.pedantic(
        lambda: run_pipelined(iterations, 256, config, overlap=True),
        rounds=3,
        iterations=1,
    )
    serialised = run_pipelined(iterations, 256, config, overlap=False)
    print_table(
        "Pipelined vs serialised execution (p=256, 12 iterations)",
        ["schedule", "makespan"],
        [
            ["serialised", f"{serialised.makespan:.1f}"],
            ["pipelined", f"{overlapped.makespan:.1f}"],
        ],
        name="fig3_pipeline_speedup",
    )
    assert overlapped.makespan < serialised.makespan


def test_benchmark_pipeline_transform(benchmark):
    unit = parse_unit(FIG3)
    result = benchmark(lambda: pipeline_loop(unit.body[0], unit, depth=1))
    assert result.succeeded
