"""Concurrent-op execution and pipelined loop tests."""

import random

import pytest

from repro.runtime import (
    MachineConfig,
    ParallelOp,
    PipelineIteration,
    profile_of,
)
from repro.runtime.executor import run_concurrent_ops, run_pipelined

CONFIG = MachineConfig(processors=64)


def regular_op(name="regular", n=256, cost=10.0):
    return ParallelOp(name=name, costs=[cost] * n)


def irregular_op(name="irregular", n=256, seed=5):
    rng = random.Random(seed)
    costs = [200.0 if rng.random() < 0.08 else 3.0 for _ in range(n)]
    return ParallelOp(name=name, costs=costs)


# -- ParallelOp statistics -------------------------------------------------------


def test_parallel_op_statistics():
    op = ParallelOp(name="t", costs=[1.0, 3.0, 5.0])
    assert op.mean == pytest.approx(3.0)
    assert op.total_work == pytest.approx(9.0)
    assert op.variance == pytest.approx(4.0)
    assert op.cv == pytest.approx(2.0 / 3.0)


def test_parallel_op_rejects_negative_costs():
    with pytest.raises(ValueError):
        ParallelOp(name="bad", costs=[1.0, -2.0])


def test_profile_of_samples_prefix():
    op = irregular_op()
    profile = profile_of(op)
    assert profile.tasks == op.size
    assert profile.mean > 0


def test_prefix_means_shape():
    op = ParallelOp(name="t", costs=[float(i) for i in range(64)])
    means = op.prefix_means(buckets=8)
    assert len(means) == 8
    assert means[0] < means[-1]


# -- concurrent ops -----------------------------------------------------------------


def test_concurrent_ops_share_processors():
    result = run_concurrent_ops(
        [irregular_op(), regular_op()], 64, CONFIG, allocator="balance"
    )
    assert sum(result.shares) == 64
    assert all(s >= 1 for s in result.shares)
    assert result.makespan > 0


def test_balance_beats_even_for_asymmetric_work():
    heavy = ParallelOp(name="heavy", costs=[20.0] * 512)
    light = ParallelOp(name="light", costs=[1.0] * 64)
    balanced = run_concurrent_ops([heavy, light], 64, CONFIG, allocator="balance")
    even = run_concurrent_ops([heavy, light], 64, CONFIG, allocator="even")
    assert balanced.makespan <= even.makespan
    assert balanced.shares[0] > balanced.shares[1]


def test_regular_op_smooths_irregular_partner():
    """The paper's headline effect: when an irregular operation has too
    little parallelism to use all processors ("too few mask elements are
    non-zero"), running a regular op beside it beats running the two one
    after the other on all processors."""
    rng = random.Random(9)
    sparse_irregular = ParallelOp(
        name="sparse", costs=[rng.uniform(50.0, 150.0) for _ in range(40)]
    )
    regular = regular_op(n=2048, cost=5.0)
    together = run_concurrent_ops([sparse_irregular, regular], 64, CONFIG)
    from repro.runtime.distributed import run_distributed

    serial = (
        run_distributed(sparse_irregular.costs, 64, config=CONFIG).makespan
        + run_distributed(regular.costs, 64, config=CONFIG).makespan
    )
    assert together.makespan < serial


def test_single_op_gets_all_processors():
    result = run_concurrent_ops([regular_op()], 64, CONFIG)
    assert result.shares[0] == 64


# -- pipelined loops ------------------------------------------------------------------


def make_iterations(m=12, n_ind=256, dep_cost=50.0):
    """A pipeline in the paper's shape: a wide independent stage per
    iteration, plus a short serial dependent stage (the previous
    iteration's column)."""
    iterations = []
    for i in range(m):
        iterations.append(
            PipelineIteration(
                independent=ParallelOp(name=f"ai{i}", costs=[4.0] * n_ind),
                dependent=ParallelOp(name=f"ad{i}", costs=[dep_cost]),
                merge=ParallelOp(name=f"am{i}", costs=[1.0] * 8),
            )
        )
    return iterations


def test_pipelined_overlap_beats_sequence():
    iterations = make_iterations()
    overlapped = run_pipelined(iterations, 64, CONFIG, overlap=True)
    sequential = run_pipelined(iterations, 64, CONFIG, overlap=False)
    assert overlapped.makespan < sequential.makespan


def test_pipeline_work_conserved():
    iterations = make_iterations(m=6)
    result = run_pipelined(iterations, 32, CONFIG)
    expected = sum(
        it.independent.total_work + it.dependent.total_work + it.merge.total_work
        for it in iterations
    )
    assert result.total_work == pytest.approx(expected)


def test_pipeline_records_splits():
    iterations = make_iterations(m=5)
    result = run_pipelined(iterations, 64, CONFIG, overlap=True)
    assert len(result.splits) == 4  # m-1 steady-state overlaps
    for p1, p2 in result.splits:
        assert p1 + p2 == 64


def test_empty_pipeline():
    result = run_pipelined([], 16, CONFIG)
    assert result.makespan == 0.0
