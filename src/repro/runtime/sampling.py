"""Startup task-cost sampling, shared by every backend (Section 4.1.1).

"The runtime system samples task execution times to compute their
statistical mean (mu) and variance (sigma^2)."

Before this module existed the sampling arithmetic was duplicated —
:func:`repro.runtime.executor.profile_of` had its own Bessel-corrected
variance with its own guard, :class:`repro.runtime.cost_model.OnlineStats`
kept a Welford accumulator, and the mp backend would have needed a third
copy.  One operation observed through two of those paths could disagree
about its coefficient of variation, which feeds both the TAPER chunk
recurrence and the Eq. 1 lag term.  Everything now funnels through
:func:`sample_mean_std` so the simulated and real backends sample
identically.
"""

from __future__ import annotations

import math
from typing import AbstractSet, List, Optional, Sequence, Tuple

from .cost_model import OnlineStats
from .estimates import OpProfile

#: How many leading tasks the runtime observes "during startup" before it
#: must produce an estimate (the paper samples a prefix, not the whole
#: operation).  One depth for every backend: ``executor.profile_of`` and
#: the mp session's declared-cost profile both read it.
DEFAULT_SAMPLE = 32


def sample_costs(costs: Sequence[float], sample: int = DEFAULT_SAMPLE) -> Sequence[float]:
    """The observed prefix: the first ``sample`` task costs (at least one)."""
    if not costs:
        return costs
    return costs[: max(1, min(sample, len(costs)))]


def first_attempt_records(
    records: Sequence[Tuple[int, float, float]],
    retried: AbstractSet[int],
) -> List[Tuple[int, float, float]]:
    """Drop measured ``(index, start, duration)`` records of retried tasks.

    Retried tasks ran after a fault (a reclaimed chunk or a kernel
    exception): their wall-clock durations include warm caches, backoff
    scheduling skew, and whatever the fault disturbed, so feeding them to
    the TAPER mean/variance estimator would bias the chunk recurrence.
    Only first-attempt samples count toward cost statistics; the retried
    tasks' *results* still count toward value totals.
    """
    if not retried:
        return list(records)
    return [record for record in records if record[0] not in retried]


def sample_mean_std(
    observed: Sequence[float],
) -> Tuple[float, float]:
    """Sample mean and Bessel-corrected standard deviation.

    The single source of truth for the runtime's (mu, sigma) estimate:
    an empty sample is (0, 0); a single observation has zero variance; two
    or more divide the squared deviations by ``n - 1``.
    """
    n = len(observed)
    if n == 0:
        return 0.0, 0.0
    mean = sum(observed) / n
    if n < 2:
        return mean, 0.0
    var = sum((c - mean) ** 2 for c in observed) / (n - 1)
    return mean, math.sqrt(var)


def stats_from_costs(
    costs: Sequence[float], sample: int = DEFAULT_SAMPLE
) -> OnlineStats:
    """An :class:`OnlineStats` pre-seeded from a sampled cost prefix.

    Welford's update produces exactly the Bessel-corrected moments of
    :func:`sample_mean_std`, so stats built here agree with profiles built
    from the same prefix.
    """
    stats = OnlineStats()
    for cost in sample_costs(costs, sample):
        stats.update(cost)
    return stats


def profile_from_costs(
    costs: Sequence[float],
    tasks: Optional[int] = None,
    sample: int = DEFAULT_SAMPLE,
    setup_bytes: float = 0.0,
) -> OpProfile:
    """The runtime's sampled :class:`OpProfile` for one operation.

    ``tasks`` defaults to ``len(costs)`` but may be larger when the costs
    are themselves only a sample of a bigger operation (the mp backend's
    startup sampling).
    """
    observed = sample_costs(costs, sample)
    mean, stddev = sample_mean_std(observed)
    return OpProfile(
        tasks=tasks if tasks is not None else len(costs),
        mean=mean,
        stddev=stddev,
        setup_bytes=setup_bytes,
    )
