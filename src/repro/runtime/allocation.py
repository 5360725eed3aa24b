"""Runtime processor allocation (Section 4.1.2).

The paper's iterative algorithm, verbatim::

    epsilon = 5%
    p1 = p/2, p2 = p - p1, count = 0
    eA = finish_estimate(A, p1), eB = finish_estimate(B, p2)
    while ((count < max_count) and (|eA - eB| > epsilon))
        if (eA > eB)
            p1 = p1 + p2/2
            p2 = p - p1
        else
            p2 = p2 + p1/2
            p1 = p - p2
        eA = finish_estimate(A, p1)
        eB = finish_estimate(B, p2)
        count = count + 1

"We limit the number of iterations to control the amount of overhead
imposed.  In practice, using a max_count of four has been sufficient."

"By balancing the estimated finishing times of A and B1, the runtime
system uses the extra concurrency from B1 to compensate for A's irregular
execution behavior."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..obs.events import ALLOC_DECIDE, Tracer

FinishEstimate = Callable[[int], float]


@dataclass
class AllocationResult:
    """The chosen split and its predicted finishing times."""

    p1: int
    p2: int
    estimate1: float
    estimate2: float
    iterations: int

    @property
    def predicted_finish(self) -> float:
        return max(self.estimate1, self.estimate2)


def allocate_pair(
    p: int,
    estimate_a: FinishEstimate,
    estimate_b: FinishEstimate,
    epsilon: float = 0.05,
    max_count: int = 4,
    tracer: Optional[Tracer] = None,
    labels: Tuple[str, str] = ("A", "B"),
) -> AllocationResult:
    """Ration ``p`` processors between two concurrent operations.

    ``epsilon`` is relative (the paper's 5%): the loop stops when the two
    finishing-time estimates agree to within ``epsilon`` of the larger.
    """
    if p < 2:
        raise ValueError("need at least two processors to share")
    p1 = p // 2
    p2 = p - p1
    count = 0
    e_a = estimate_a(p1)
    e_b = estimate_b(p2)
    trail = [[p1, p2, e_a, e_b]]
    while count < max_count and abs(e_a - e_b) > epsilon * max(e_a, e_b, 1e-12):
        if e_a > e_b:
            p1 = p1 + p2 // 2
            p2 = p - p1
        else:
            p2 = p2 + p1 // 2
            p1 = p - p2
        # Never starve either side completely.
        p1 = max(1, min(p1, p - 1))
        p2 = p - p1
        e_a = estimate_a(p1)
        e_b = estimate_b(p2)
        count += 1
        trail.append([p1, p2, e_a, e_b])
    if tracer is not None:
        tracer.emit(
            ALLOC_DECIDE,
            tracer.now,
            op="+".join(labels),
            shares=[p1, p2],
            width=p,
            estimates=[e_a, e_b],
            labels=list(labels),
            iterations=count,
            trail=trail,
        )
    return AllocationResult(
        p1=p1, p2=p2, estimate1=e_a, estimate2=e_b, iterations=count
    )


def allocate_even(p: int, k: int) -> List[int]:
    """The naive baseline: split ``p`` evenly among ``k`` operations."""
    base = p // k
    extra = p % k
    return [base + (1 if index < extra else 0) for index in range(k)]


def allocate_proportional(
    p: int, works: Sequence[float]
) -> List[int]:
    """Baseline: processors proportional to total work (ignores variance,
    communication, and scheduling overhead — what Eq. 1 adds)."""
    total = sum(works)
    if total <= 0:
        return allocate_even(p, len(works))
    raw = [max(1, round(p * w / total)) for w in works]
    # Fix rounding drift while keeping every share >= 1.
    while sum(raw) > p:
        index = raw.index(max(raw))
        raw[index] -= 1
    while sum(raw) < p:
        index = raw.index(min(raw))
        raw[index] += 1
    return raw


def allocate_many(
    p: int,
    estimates: Sequence[FinishEstimate],
    epsilon: float = 0.05,
    max_count: int = 4,
    tracer: Optional[Tracer] = None,
    labels: Optional[Sequence[str]] = None,
) -> List[int]:
    """Generalisation to k concurrent operations.

    Repeatedly applies the pairwise balancing step between the operations
    with the largest and smallest finishing estimates — the same
    equalise-finishing-times objective the paper states for pairs.
    """
    k = len(estimates)
    if k == 0:
        return []
    if k == 1:
        return [p]
    shares = allocate_even(p, k)
    best_shares = list(shares)
    best_finish = max(estimates[i](shares[i]) for i in range(k))
    # Damped transfers: start by moving half the fastest side's share and
    # geometrically shrink the step, so the search settles instead of
    # oscillating around the equal-finishing-time point.
    for round_index in range(max_count * k):
        times = [estimates[i](shares[i]) for i in range(k)]
        slowest = max(range(k), key=lambda i: times[i])
        fastest = min(range(k), key=lambda i: times[i])
        if times[slowest] - times[fastest] <= epsilon * max(times[slowest], 1e-12):
            break
        if shares[fastest] <= 1:
            break
        damping = 2 ** (1 + round_index // k)
        transfer = max(1, shares[fastest] // damping)
        transfer = min(transfer, shares[fastest] - 1)
        shares[fastest] -= transfer
        shares[slowest] += transfer
        finish = max(estimates[i](shares[i]) for i in range(k))
        if finish < best_finish:
            best_finish = finish
            best_shares = list(shares)
    final_finish = max(estimates[i](shares[i]) for i in range(k))
    chosen = shares if final_finish <= best_finish else best_shares
    if tracer is not None:
        chosen_labels = (
            list(labels) if labels else [str(i) for i in range(k)]
        )
        tracer.emit(
            ALLOC_DECIDE,
            tracer.now,
            op="+".join(chosen_labels),
            shares=list(chosen),
            width=p,
            estimates=[estimates[i](chosen[i]) for i in range(k)],
            labels=chosen_labels,
            predicted_finish=max(
                estimates[i](chosen[i]) for i in range(k)
            ),
        )
    return chosen


def ration(
    width: int,
    estimates: Sequence[FinishEstimate],
    allocator: str = "balance",
    works: Optional[Sequence[float]] = None,
    tracer: Optional[Tracer] = None,
    labels: Optional[Sequence[str]] = None,
) -> List[int]:
    """The one Eq. 1 share rule.  A lone claimant takes all of
    ``width``; below two processors apiece the split is even; otherwise
    ``allocator`` picks :func:`allocate_many` (``"balance"``, with
    ``tracer``/``labels``), :func:`allocate_proportional` over
    ``works``, or :func:`allocate_even`."""
    k = len(estimates)
    if k == 1:
        return [width]
    if width < 2 * k or allocator == "even":
        return allocate_even(width, k)
    if allocator == "proportional":
        return allocate_proportional(width, works)
    if allocator != "balance":
        raise ValueError(f"unknown allocator {allocator!r}")
    return allocate_many(width, estimates, tracer=tracer, labels=labels)
