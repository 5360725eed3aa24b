"""A-costfn ablation: what the cost function buys (Section 4.1.1).

The paper stresses "the TAPER algorithm *with cost functions*": the
runtime samples task costs along the iteration axis and uses the model to
guide scheduling.  In this reproduction the cost function drives three
distributed-scheduler decisions — run predicted-expensive tasks first,
pick steal victims by predicted remaining *work* (not task count), and
re-assign the predicted-expensive tail.  The ablation compares the guided
scheduler against a blind one (FIFO order, count-based victims, tail
steals) on irregular workloads.
"""

import random

import pytest

from conftest import print_table
from repro.runtime import MachineConfig
from repro.runtime.distributed import run_distributed

P = 256
N = 2048


def bimodal():
    rng = random.Random(5)
    return [120.0 if rng.random() < 0.06 else 4.0 for _ in range(N)]


def clustered():
    # Expensive region in the middle third (spatially clustered activity).
    return [
        60.0 if N // 3 <= index < 2 * N // 3 else 3.0 for index in range(N)
    ]


def uniform():
    rng = random.Random(9)
    return [rng.uniform(2.0, 20.0) for _ in range(N)]


@pytest.fixture(scope="module")
def results():
    config = MachineConfig(processors=P)
    out = {}
    for label, costs in (
        ("bimodal", bimodal()),
        ("clustered", clustered()),
        ("uniform", uniform()),
    ):
        out[label] = {
            "guided": run_distributed(costs, P, config=config, cost_guided=True),
            "blind": run_distributed(costs, P, config=config, cost_guided=False),
        }
    return out


def test_costfn_ablation_table(results):
    rows = []
    for label, pair in results.items():
        improvement = pair["blind"].makespan / pair["guided"].makespan
        rows.append(
            [
                label,
                f"{pair['guided'].makespan:.0f}",
                f"{pair['blind'].makespan:.0f}",
                f"{improvement:.2f}x",
            ]
        )
    print_table(
        f"Cost-function-guided vs blind distributed TAPER (p={P}, n={N})",
        ["workload", "guided", "blind", "improvement"],
        rows,
        name="ablation_costfn",
    )
    # Guided wins clearly on both irregular workloads.
    assert (
        results["bimodal"]["guided"].makespan
        < results["bimodal"]["blind"].makespan
    )
    assert (
        results["clustered"]["guided"].makespan
        <= results["clustered"]["blind"].makespan * 1.02
    )
    # On uniform work the two are close (nothing to predict).
    uniform_pair = results["uniform"]
    assert uniform_pair["guided"].makespan <= uniform_pair["blind"].makespan * 1.1


def test_benchmark_guided_run(benchmark):
    config = MachineConfig(processors=P)
    costs = bimodal()
    result = benchmark.pedantic(
        lambda: run_distributed(costs, P, config=config), rounds=3, iterations=1
    )
    assert result.makespan > 0
