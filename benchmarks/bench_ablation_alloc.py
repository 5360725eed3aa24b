"""A-alloc ablation: the Eq. 1 processor allocator vs naive splits
(Section 4.1.2).

Two concurrent operations — one irregular, one regular — share the
machine with their processor groups *pinned* (no cross-group stealing, as
on a partitioned machine).  Compared allocators: the paper's
finishing-time balancer, an even split, and work-proportional shares.
The balancer also drives down data movement when stealing *is* allowed.
"""

import random

import pytest

from conftest import print_table
from repro.runtime import MachineConfig, ParallelOp
from repro.runtime.executor import run_concurrent_ops

P = 256


def _ops():
    rng = random.Random(31)
    irregular = ParallelOp(
        name="irregular",
        costs=[rng.uniform(10.0, 80.0) for _ in range(300)],
    )
    # Far more regular work than irregular: even splits leave the regular
    # side as a serial bottleneck.
    regular = ParallelOp(name="regular", costs=[4.0] * 16384)
    return [irregular, regular]


@pytest.fixture(scope="module")
def pinned():
    config = MachineConfig(processors=P)
    ops = _ops()
    return {
        allocator: run_concurrent_ops(
            ops, P, config, allocator=allocator, work_conserving=False
        )
        for allocator in ("balance", "even", "proportional")
    }


def test_alloc_ablation_pinned(pinned):
    rows = [
        [
            allocator,
            str(result.shares),
            f"{result.makespan:.0f}",
        ]
        for allocator, result in pinned.items()
    ]
    print_table(
        f"Processor allocation ablation (pinned groups, p={P})",
        ["allocator", "shares", "makespan"],
        rows,
        name="ablation_alloc_pinned",
    )
    balance = pinned["balance"].makespan
    even = pinned["even"].makespan
    proportional = pinned["proportional"].makespan
    # The finishing-time balancer clearly beats the even split and is
    # competitive with (or better than) proportional-by-work.
    assert balance < 0.85 * even
    assert balance <= proportional * 1.10
    assert pinned["balance"].shares != pinned["even"].shares


def test_alloc_reduces_movement_when_stealing(capsys):
    config = MachineConfig(processors=P)
    ops = _ops()
    balanced = run_concurrent_ops(ops, P, config, allocator="balance")
    even = run_concurrent_ops(ops, P, config, allocator="even")
    print_table(
        "Allocation quality under work-conserving stealing",
        ["allocator", "makespan", "tasks moved"],
        [
            ["balance", f"{balanced.makespan:.0f}", balanced.per_op[0].tasks_moved],
            ["even", f"{even.makespan:.0f}", even.per_op[0].tasks_moved],
        ],
        name="ablation_alloc_stealing",
    )
    # With stealing both converge; makespans must agree closely.
    assert balanced.makespan <= even.makespan * 1.1


def test_benchmark_balanced_allocation(benchmark):
    config = MachineConfig(processors=P)
    ops = _ops()
    result = benchmark.pedantic(
        lambda: run_concurrent_ops(ops, P, config, allocator="balance"),
        rounds=3,
        iterations=1,
    )
    assert result.makespan > 0
