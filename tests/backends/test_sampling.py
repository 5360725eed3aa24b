"""One shared sampling helper feeds profile_of, taper, and the backends."""

import math

from repro.runtime.executor import profile_of
from repro.runtime.sampling import (
    DEFAULT_SAMPLE,
    profile_from_costs,
    sample_costs,
    sample_mean_std,
    stats_from_costs,
)
from repro.runtime.task import ParallelOp


def test_sample_costs_prefix_and_bounds():
    costs = [float(i) for i in range(100)]
    assert sample_costs(costs, 10) == costs[:10]
    assert sample_costs(costs, 1000) == costs
    assert sample_costs([], 10) == []


def test_sample_mean_std_bessel_corrected():
    mean, std = sample_mean_std([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
    assert math.isclose(mean, 5.0)
    assert math.isclose(std, math.sqrt(32.0 / 7.0))


def test_sample_mean_std_degenerate():
    assert sample_mean_std([]) == (0.0, 0.0)
    assert sample_mean_std([3.0]) == (3.0, 0.0)


def test_profile_of_matches_shared_helper():
    costs = [1.0, 9.0, 2.0, 8.0, 3.0, 7.0] * 10
    op = ParallelOp(name="x", costs=costs, bytes_per_task=64.0)
    via_executor = profile_of(op)
    via_helper = profile_from_costs(
        costs,
        tasks=len(costs),
        sample=DEFAULT_SAMPLE,
        setup_bytes=64.0 * len(costs),
    )
    assert via_executor.mean == via_helper.mean
    assert via_executor.stddev == via_helper.stddev
    assert via_executor.tasks == via_helper.tasks
    assert via_executor.setup_bytes == via_helper.setup_bytes


def test_stats_from_costs_matches_mean_std():
    costs = [5.0, 1.0, 3.0, 9.0, 2.0]
    stats = stats_from_costs(costs, sample=len(costs))
    mean, std = sample_mean_std(costs)
    assert math.isclose(stats.mean, mean)
    assert math.isclose(stats.stddev, std)
